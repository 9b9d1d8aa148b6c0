(* The build workload: back-to-back rounds of a fixed solve set, no
   server. Each synopsis is re-measured on its input in its own metric
   and must match the objective its solver reported. *)

module Minmax_dp = Wavesyn_core.Minmax_dp
module Approx_abs = Wavesyn_core.Approx_abs
module Approx_additive = Wavesyn_core.Approx_additive
open Common

type solve = {
  name : string;
  layer : string;  (** the per-layer family this solve feeds *)
  run : unit -> float * float * int;
      (** reported objective, re-measured max error, DP states *)
}

let solve_set ~data ~grid =
  let minmax m () =
    let r = Minmax_dp.solve ~data ~budget m in
    (r.max_err, Metrics.of_synopsis m ~data r.synopsis, r.dp_states)
  in
  [
    { name = "minmax-abs"; layer = "core.minmax"; run = minmax metric };
    { name = "minmax-rel"; layer = "core.minmax"; run = minmax rel_metric };
    {
      name = "approx-abs";
      layer = "core.md";
      run =
        (fun () ->
          let r =
            Approx_abs.solve ~data:grid ~budget:grid_budget ~epsilon ()
          in
          ( r.max_err,
            Metrics.of_md_synopsis metric ~data:grid r.synopsis,
            r.dp_states ));
    };
    {
      name = "approx-additive";
      layer = "core.additive";
      run =
        (fun () ->
          let r =
            Approx_additive.solve ~data:grid ~budget:grid_budget ~epsilon
              rel_metric
          in
          ( r.measured,
            Metrics.of_md_synopsis rel_metric ~data:grid r.synopsis,
            r.dp_states ));
    };
  ]

type timing = { solve : solve; round : int; ms : float; states : int }

type outcome = {
  setup_s : float;
  rounds_ms : float array;  (** untraced rounds *)
  traced_rounds_ms : float array;
  timings : timing list;
  elapsed_s : float;
  solves : int;
  failed : int;
  err_sum : float;  (** per input set, mean over the sets *)
  rss_mb : float;
  spans : Span.span list;
  data : float array;
}

let close_to a b = Float.abs (a -. b) <= 1e-9 *. (1. +. Float.abs a)

(* Rounds cycle through [sets] input sets made from the seed, so the
   per-round median and the error sum average over several inputs
   instead of resting on one zipf permutation. *)
let sets = 8

let inputs ~seed =
  Array.init sets (fun k ->
      let seed = derive seed ("build", k) in
      (zipf ~seed, grid ~seed))

let run ~seed ~seconds ~trace =
  (* Set-up is input generation, repeated for a steady median. *)
  let setup_s = median_ns ~reps:51 (fun () -> ignore (inputs ~seed)) /. 1e9 in
  let set_of = Array.map (fun (data, grid) -> solve_set ~data ~grid) (inputs ~seed) in
  let recorder = Span.create ~base:0 in
  let first = Hashtbl.create 64 in
  let failed = ref 0 and solves = ref 0 and err_sum = ref 0. in
  let rounds = ref [] and traced_rounds = ref [] and timings = ref [] in
  (* One untimed warm-up round: heap growth and first-touch page faults
     are not what the timed rounds measure. *)
  List.iter (fun s -> ignore (s.run ())) set_of.(0);
  let t_start = now_ns () in
  let round_no = ref 0 in
  (* Every input set runs at least once. A traced run alternates traced
     and untraced rounds; the difference is the tracing overhead. *)
  while !round_no < sets || s_since t_start < seconds do
    incr round_no;
    let k = (!round_no - 1) mod sets in
    let traced = trace && !round_no mod 2 = 0 in
    let round () =
      List.fold_left
        (fun total s ->
          let t0 = now_ns () in
          let reported, measured, states =
            if traced then Span.with_ recorder s.name ~req:!round_no s.run
            else s.run ()
          in
          let ms = ms_since t0 in
          incr solves;
          timings := { solve = s; round = !round_no; ms; states } :: !timings;
          (* A repeated input must reproduce its first objective, and that
             objective must be what the synopsis really achieves. *)
          (match Hashtbl.find_opt first (k, s.name) with
          | None ->
              Hashtbl.add first (k, s.name) reported;
              err_sum := !err_sum +. (measured /. float_of_int sets)
          | Some r0 -> if not (Float.equal r0 reported) then incr failed);
          if not (close_to reported measured) then incr failed;
          total +. ms)
        0. set_of.(k)
    in
    let ms =
      if traced then Span.with_ recorder "build.round" ~req:!round_no round
      else round ()
    in
    if traced then traced_rounds := ms :: !traced_rounds
    else rounds := ms :: !rounds
  done;
  {
    setup_s;
    rounds_ms = Array.of_list (List.rev !rounds);
    traced_rounds_ms = Array.of_list (List.rev !traced_rounds);
    timings = List.rev !timings;
    elapsed_s = s_since t_start;
    solves = !solves;
    failed = !failed;
    err_sum = !err_sum;
    rss_mb = peak_rss_mb 0;
    spans = Span.spans [ recorder ];
    data = zipf ~seed;
  }
