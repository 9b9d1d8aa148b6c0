(* Smoke benchmark: one tiny Bechamel case per timed group, finishing
   in seconds rather than minutes, with machine-readable JSON output.

   Purpose (see docs/OBSERVABILITY.md): seed a perf trajectory across
   PRs and prove the observability layer's instrumentation-off path
   leaves the DP hot loops untouched — the E6 cases here are the same
   code path bench/main.ml times at full size.

   Usage: dune exec bench/smoke.exe -- [OUT.json]
   (default output path: BENCH_obs.json in the current directory) *)

open Bechamel
open Toolkit

module Prng = Wavesyn_util.Prng
module Signal = Wavesyn_datagen.Signal
module Metrics = Wavesyn_synopsis.Metrics
module Range_query = Wavesyn_synopsis.Range_query
module Minmax_dp = Wavesyn_core.Minmax_dp
module Approx_additive = Wavesyn_core.Approx_additive
module Greedy_l2 = Wavesyn_baselines.Greedy_l2
module Stream_synopsis = Wavesyn_stream.Stream_synopsis
module Ladder = Wavesyn_robust.Ladder
module Registry = Wavesyn_obs.Registry
module Approx_abs = Wavesyn_core.Approx_abs
module Multi_measure = Wavesyn_core.Multi_measure
module Ndarray = Wavesyn_util.Ndarray
module Pool = Wavesyn_par.Pool
module Wire = Wavesyn_server.Wire
module Admit = Wavesyn_server.Admit
module Shard = Wavesyn_server.Shard
module Rcache = Wavesyn_adaptive.Rcache

let rng = Prng.create ~seed:31415
let signal n = Signal.random_walk ~rng ~n ~step:3.
let rel1 = Metrics.Rel { sanity = 1.0 }

(* One case per timed group of bench/main.ml, at tiny sizes. *)
let cases =
  let data64 = signal 64 in
  let data128 = signal 128 in
  let data4096 = signal 4096 in
  let syn = Greedy_l2.threshold ~data:data4096 ~budget:32 in
  let stream = Stream_synopsis.create ~n:4096 in
  let i = ref 0 in
  (* The observability overhead pair: the very same ladder request with
     instrumentation off (no registry) and on (live registry). *)
  let obs = Registry.create () in
  [
    Test.make ~name:"E1/haar1d-decompose:256"
      (Staged.stage
         (let d = signal 256 in
          fun () -> ignore (Wavesyn_haar.Haar1d.decompose d)));
    Test.make ~name:"E6/minmax-dp-N:64"
      (Staged.stage (fun () -> ignore (Minmax_dp.solve ~data:data64 ~budget:8 rel1)));
    Test.make ~name:"E6/minmax-dp-N:128"
      (Staged.stage (fun () -> ignore (Minmax_dp.solve ~data:data128 ~budget:8 rel1)));
    Test.make ~name:"E7/additive-1d:64"
      (Staged.stage (fun () ->
           ignore (Approx_additive.solve_1d ~data:data64 ~budget:6 ~epsilon:0.25 rel1)));
    Test.make ~name:"E10/range-sum-from-synopsis:4096"
      (Staged.stage (fun () -> ignore (Range_query.range_sum syn ~lo:100 ~hi:3000)));
    Test.make ~name:"E11/stream-update:4096"
      (Staged.stage (fun () ->
           i := (!i + 797) land 4095;
           Stream_synopsis.update stream ~i:!i ~delta:1.));
    Test.make ~name:"OBS/ladder-serve-plain:64"
      (Staged.stage (fun () ->
           ignore (Ladder.serve ~data:data64 ~budget:8 rel1)));
    Test.make ~name:"OBS/ladder-serve-instrumented:64"
      (Staged.stage (fun () ->
           ignore (Ladder.serve ~obs ~data:data64 ~budget:8 rel1)));
  ]

(* Flat-vs-reference memo kernel pairs (docs/KERNELS.md): identical
   DP, identical state count, different storage — the ratio within a
   pair is the payoff of the flat layout. The recorded rows carry
   ns_per_state (ns_per_run / dp_states) so per-state cost is
   comparable across sizes. *)
(* A separate rng keeps these draws out of the main rng stream, so the
   pre-existing cases keep benchmarking the exact same inputs as older
   recordings. The same two arrays feed both the timed cases and the
   state count below. *)
let kernel_data128 =
  Signal.random_walk ~rng:(Prng.create ~seed:2718) ~n:128 ~step:3.

let kernel_data64 =
  Signal.random_walk ~rng:(Prng.create ~seed:2719) ~n:64 ~step:3.

let kernel_cases =
  let data128 = kernel_data128 in
  let data64 = kernel_data64 in
  [
    Test.make ~name:"KERNEL/minmax-flat:128"
      (Staged.stage (fun () ->
           ignore
             (Minmax_dp.solve ~impl:Minmax_dp.Flat ~data:data128 ~budget:8 rel1)));
    Test.make ~name:"KERNEL/minmax-reference:128"
      (Staged.stage (fun () ->
           ignore
             (Minmax_dp.solve ~impl:Minmax_dp.Reference ~data:data128 ~budget:8
                rel1)));
    Test.make ~name:"KERNEL/md-flat:64"
      (Staged.stage (fun () ->
           ignore
             (Approx_abs.solve_1d ~impl:Wavesyn_core.Md_dp.Flat ~data:data64
                ~budget:8 ~epsilon:0.25 ())));
    Test.make ~name:"KERNEL/md-reference:64"
      (Staged.stage (fun () ->
           ignore
             (Approx_abs.solve_1d ~impl:Wavesyn_core.Md_dp.Reference
                ~data:data64 ~budget:8 ~epsilon:0.25 ())));
  ]

(* dp_states per run of the state-counted cases above (deterministic,
   so one extra solve per case suffices); keyed by the grouped case
   name for the ns_per_state column. *)
let kernel_states () =
  let minmax =
    (Minmax_dp.solve ~data:kernel_data128 ~budget:8 rel1).Minmax_dp.dp_states
  in
  let nd = Ndarray.of_flat_array ~dims:[| 64 |] kernel_data64 in
  let md =
    (Approx_abs.solve ~data:nd ~budget:8 ~epsilon:0.25 ()).Approx_abs.dp_states
  in
  [
    ("smoke/KERNEL/minmax-flat:128", minmax);
    ("smoke/KERNEL/minmax-reference:128", minmax);
    ("smoke/KERNEL/md-flat:64", md);
    ("smoke/KERNEL/md-reference:64", md);
  ]

(* Sequential-vs-pooled pairs for the deterministic solver pool
   (docs/PARALLELISM.md). The pooled runs return bit-identical results;
   only the wall clock may differ, and only on multicore hosts — the
   recorded BENCH_par.json notes the host's core count so a 1-core
   container's numbers are not read as a parallelism regression. *)
(* The shared fan-out inputs, drawn once so the seq and pool4 passes
   time the same data. *)
let par_inputs () =
  let grid = Ndarray.init ~dims:[| 8; 8 |] (fun _ -> Prng.float rng 50.) in
  let measures = Array.init 3 (fun _ -> signal 64) in
  let data64 = signal 64 in
  (grid, measures, data64)

(* The sequential halves run in the pool-free pass: merely having idle
   worker domains alive skews every measurement on a small host (the
   multi-domain GC coordinates across them), so the seq twins must be
   timed with no pool in existence to be an honest -j1 baseline. *)
let par_seq_cases (grid, measures, data64) =
  [
    Test.make ~name:"PAR/approx-abs-seq:8x8"
      (Staged.stage (fun () ->
           ignore (Approx_abs.solve ~data:grid ~budget:12 ~epsilon:0.25 ())));
    Test.make ~name:"PAR/multi-measure-seq:3x64-b12"
      (Staged.stage (fun () ->
           ignore (Multi_measure.solve ~measures ~budget:12 rel1)));
    Test.make ~name:"PAR/budget-for-seq:64"
      (Staged.stage (fun () ->
           ignore (Minmax_dp.budget_for ~data:data64 ~target:2.5 rel1)));
  ]

let par_pool_cases pool4 (grid, measures, data64) =
  [
    Test.make ~name:"PAR/approx-abs-pool4:8x8"
      (Staged.stage (fun () ->
           ignore
             (Approx_abs.solve ~pool:pool4 ~data:grid ~budget:12 ~epsilon:0.25
                ())));
    Test.make ~name:"PAR/multi-measure-pool4:3x64-b12"
      (Staged.stage (fun () ->
           ignore (Multi_measure.solve ~pool:pool4 ~measures ~budget:12 rel1)));
    Test.make ~name:"PAR/budget-for-pool4:64"
      (Staged.stage (fun () ->
           ignore
             (Minmax_dp.budget_for ~pool:pool4 ~data:data64 ~target:2.5 rel1)));
  ]

(* Wire-protocol and admission-control hot paths of the serving
   subsystem (docs/SERVING.md). All pure in-process work: framing a
   request, decoding a framed reply (CRC check included), and a full
   offer/drain cycle through the bounded admission queue. Recorded in
   BENCH_server.json so later protocol changes show up as perf moves. *)
(* One scatter-gather round through the Shard router (in-process rpc
   stubs answering exact sums, so the row isolates routing and merge
   overhead): a point, a cross-shard range and a quantile bisection,
   at 1 shard vs 4 — the per-request cost of the sharded front-end. *)
let srv_shard_case ~shards =
  let n = 256 in
  let data = Array.init n (fun i -> float_of_int (((i * 37) mod 101) + 3)) in
  let ranges =
    match Shard.split ~n ~shards with Ok r -> r | Error e -> failwith e
  in
  let rpc_of { Shard.lo; hi } =
    let slice = Array.sub data lo (hi - lo + 1) in
    fun req ->
      match req with
      | Wire.Point i -> Ok [ Wire.Value slice.(i) ]
      | Wire.Range { lo; hi } ->
          let s = ref 0. in
          for i = lo to hi do
            s := !s +. slice.(i)
          done;
          Ok [ Wire.Value !s ]
      | _ -> Ok [ Wire.Pong ]
  in
  let router =
    match
      Shard.router ~n ~ranges (Array.of_list (List.map rpc_of ranges))
    with
    | Ok r -> r
    | Error e -> failwith e
  in
  Test.make
    ~name:(Printf.sprintf "SRV/shard-route-mixed:%d" shards)
    (Staged.stage (fun () ->
         ignore (Shard.eval router (Wire.Point (n / 2)));
         ignore (Shard.eval router (Wire.Range { lo = 7; hi = n - 9 }));
         ignore (Shard.eval router (Wire.Quantile 0.5))))

(* The result-cache A/B twin (docs/ADAPTIVE.md): the serving loop's
   per-request range evaluation over a hot set of 8 distinct ranges
   asked 64 times — the repeated traffic a cache exists for. The
   nocache row evaluates every probe with Range_query.range_sum;
   the cache row consults an Rcache first, exactly like the server's
   cache check. wavesyn-benchgate requires the cache row to beat its
   nocache twin — a cache that does not pay for its lookups fails the
   gate. *)
let srv_cache_case ~cache =
  let n = 256 in
  let data = Array.init n (fun i -> float_of_int (((i * 37) mod 101) + 3)) in
  let syn = Greedy_l2.threshold ~data ~budget:32 in
  let hot =
    Array.init 8 (fun i ->
        let lo = (i * 29) mod (n / 2) in
        (lo, lo + 63))
  in
  let eval (lo, hi) = Range_query.range_sum syn ~lo ~hi in
  if not cache then
    Test.make ~name:"SRV/range-eval-nocache:64"
      (Staged.stage (fun () ->
           for i = 0 to 63 do
             ignore (eval hot.(i land 7))
           done))
  else
    let c : (int * int, float) Rcache.t = Rcache.create ~cap:64 () in
    Test.make ~name:"SRV/range-eval-cache:64"
      (Staged.stage (fun () ->
           for i = 0 to 63 do
             let key = hot.(i land 7) in
             match Rcache.find c ~epoch:0 key with
             | Some v -> ignore v
             | None -> Rcache.add c ~epoch:0 key (eval key)
           done))

let srv_cases =
  let batch =
    Wire.Batch
      (List.init 8 (fun i ->
           if i mod 2 = 0 then Wire.Point i
           else Wire.Range { lo = i; hi = i + 7 }))
  in
  let framed_reply = Wire.encode_reply (Wire.Value 1496.640625) in
  let framed_batch = Wire.encode_request batch in
  let admit = Admit.create ~bound:64 () in
  [
    Test.make ~name:"SRV/wire-encode-batch:8"
      (Staged.stage (fun () -> ignore (Wire.encode_request batch)));
    Test.make ~name:"SRV/wire-decode-reply"
      (Staged.stage (fun () ->
           ignore
             (Wire.decode
                (Bytes.of_string framed_reply)
                ~pos:0
                ~len:(String.length framed_reply))));
    Test.make ~name:"SRV/wire-decode-batch:8"
      (Staged.stage (fun () ->
           ignore
             (Wire.decode
                (Bytes.of_string framed_batch)
                ~pos:0
                ~len:(String.length framed_batch))));
    Test.make ~name:"SRV/admit-offer-drain:32"
      (Staged.stage (fun () ->
           for i = 0 to 31 do
             ignore (Admit.offer admit i)
           done;
           ignore (Admit.take_batch admit);
           ignore (Admit.note_round admit ~shed:0)));
    srv_shard_case ~shards:1;
    srv_shard_case ~shards:4;
    srv_cache_case ~cache:false;
    srv_cache_case ~cache:true;
  ]

let benchmark tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.2) ~stabilize:true ()
  in
  let grouped = Test.make_grouped ~name:"smoke" ~fmt:"%s/%s" tests in
  let raw = Benchmark.all cfg instances grouped in
  Analyze.all ols Instance.monotonic_clock raw

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* [states] maps a case name to its per-run DP state count; such rows
   also carry dp_states and the derived ns_per_state column. *)
let write_rows oc ~schema ~extra ?(states = []) rows =
  Printf.fprintf oc "{\n  \"schema\": \"%s\",%s\n  \"results\": [\n" schema
    extra;
  List.iteri
    (fun k (name, ns) ->
      let state_cols =
        match List.assoc_opt name states with
        | Some s when s > 0 ->
            Printf.sprintf ", \"dp_states\": %d, \"ns_per_state\": %.2f" s
              (ns /. float_of_int s)
        | _ -> ""
      in
      Printf.fprintf oc "    {\"name\": \"%s\", \"ns_per_run\": %.1f%s}%s\n"
        (json_escape name) ns state_cols
        (if k = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n"

let rows_of results =
  Hashtbl.fold
    (fun name ols acc ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some (x :: _) -> x
        | _ -> Float.nan
      in
      (name, ns) :: acc)
    results []

let () =
  let out = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_obs.json" in
  let inputs = par_inputs () in
  (* Pass 1, pool-free: every sequential case (see par_seq_cases on
     why no pool may exist here). Pass 2: the pooled twins, with the
     4-domain pool alive only for this pass. *)
  let seq_results =
    benchmark (cases @ kernel_cases @ srv_cases @ par_seq_cases inputs)
  in
  let pool4 = Pool.create ~domains:4 () in
  let pool_results = benchmark (par_pool_cases pool4 inputs) in
  Pool.shutdown pool4;
  let rows =
    rows_of seq_results @ rows_of pool_results
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let states = kernel_states () in
  let oc = open_out out in
  write_rows oc ~schema:"wavesyn-bench-smoke/2" ~extra:"" ~states rows;
  close_out oc;
  (* The PAR pairs also land in their own file, tagged with the host's
     core count: on a 1-core container the pooled numbers legitimately
     match (or slightly trail) the sequential ones. *)
  let par_rows =
    List.filter (fun (name, _) -> String.starts_with ~prefix:"smoke/PAR/" name)
      rows
  in
  let oc = open_out "BENCH_par.json" in
  write_rows oc ~schema:"wavesyn-bench-par/1"
    ~extra:
      (Printf.sprintf "\n  \"host_recommended_domains\": %d,"
         (Domain.recommended_domain_count ()))
    par_rows;
  close_out oc;
  (* Serving-subsystem cases in their own file (docs/SERVING.md). *)
  let srv_rows =
    List.filter (fun (name, _) -> String.starts_with ~prefix:"smoke/SRV/" name)
      rows
  in
  let oc = open_out "BENCH_server.json" in
  write_rows oc ~schema:"wavesyn-bench-server/1" ~extra:"" srv_rows;
  close_out oc;
  List.iter (fun (name, ns) -> Printf.printf "%-40s %12.1f ns/run\n" name ns) rows;
  Printf.printf "wrote %s\n" out
