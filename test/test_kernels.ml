(* Flat-vs-reference kernel equivalence: the flat memo layouts of
   Minmax_dp and Md_dp (docs/KERNELS.md) must return bit-identical
   results — max_err bits, synopsis, dp_states — to the original
   tuple-keyed Hashtbl kernels, across random signals, budgets,
   metrics, split strategies, the dense and spill layouts, and pool
   sizes 1 and 4. For Minmax_dp also the [on_state] contract and the
   flat kernel's allocation profile. Plus the grain knob of the pool
   fan-out. *)

module Pool = Wavesyn_par.Pool
module Minmax_dp = Wavesyn_core.Minmax_dp
module Md_dp = Wavesyn_core.Md_dp
module Approx_abs = Wavesyn_core.Approx_abs
module Approx_additive = Wavesyn_core.Approx_additive
module Metrics = Wavesyn_synopsis.Metrics
module Synopsis = Wavesyn_synopsis.Synopsis
module Ndarray = Wavesyn_util.Ndarray
module Prng = Wavesyn_util.Prng
module Metric = Wavesyn_obs.Metric
module Registry = Wavesyn_obs.Registry
module Deadline = Wavesyn_robust.Deadline

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let with_pool ~domains f =
  let p = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* Bit-level float equality: NaN = NaN, -0. <> 0. — exactly the
   "same bits" contract of docs/KERNELS.md. *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let signal rng n =
  Array.init n (fun _ ->
      let v = (Prng.float rng 200.) -. 100. in
      (* a sprinkle of exact zeros exercises the nonzero-coefficient
         caps and the forced-set edge cases *)
      if Prng.float rng 1. < 0.15 then 0. else v)

(* --- Minmax_dp: Flat vs Reference --- *)

let minmax_cases rng =
  List.concat_map
    (fun n ->
      List.concat_map
        (fun metric ->
          List.map (fun budget -> (signal rng n, budget, metric)) [ 0; 1; 3; n / 2 ])
        [ Metrics.Abs; Metrics.Rel { sanity = 5. } ])
    [ 8; 16; 32 ]

let check_minmax_pair name (r_flat : Minmax_dp.result) (r_ref : Minmax_dp.result)
    =
  check (name ^ ": max_err bits") true (same_bits r_flat.max_err r_ref.max_err);
  check (name ^ ": synopsis") true (r_flat.synopsis = r_ref.synopsis);
  checki (name ^ ": dp_states") r_ref.dp_states r_flat.dp_states

(* Edge shapes for the flat kernel's leaf-level shortcut and root
   handling: the smallest domains (n = 1 has no detail coefficient and
   the root's child is the only data cell), an all-zero signal, and
   budgets above the nonzero-coefficient count. *)
let minmax_edge_cases rng =
  let tiny =
    List.concat_map
      (fun n ->
        List.map (fun budget -> (signal rng n, budget)) [ 0; 1; 2; n; n + 2 ])
      [ 1; 2; 4 ]
  in
  let zeros = List.map (fun budget -> (Array.make 8 0., budget)) [ 0; 3; 8 ] in
  (* three nonzero cells -> a handful of nonzero coefficients *)
  let sparse =
    let data = Array.make 16 0. in
    data.(2) <- 7.;
    data.(9) <- -3.;
    data.(10) <- 1.5;
    let nonzero =
      Array.fold_left
        (fun acc c -> if c <> 0. then acc + 1 else acc)
        0
        (Wavesyn_haar.Error_tree.coeffs (Wavesyn_haar.Error_tree.of_data data))
    in
    List.map (fun budget -> (data, budget)) [ nonzero; nonzero + 3; 16 ]
  in
  List.concat_map
    (fun (data, budget) ->
      List.map
        (fun metric -> (data, budget, metric))
        [ Metrics.Abs; Metrics.Rel { sanity = 5. } ])
    (tiny @ zeros @ sparse)

let test_minmax_flat_vs_reference () =
  let rng = Prng.create ~seed:41 in
  List.iter
    (fun (data, budget, metric) ->
      List.iter
        (fun split ->
          List.iter
            (fun cap_budget ->
              let r_ref =
                Minmax_dp.solve ~split ~cap_budget ~impl:Reference ~data ~budget
                  metric
              in
              List.iter
                (fun (layout, dense_limit) ->
                  let r_flat =
                    Minmax_dp.solve ~split ~cap_budget ~impl:Flat ?dense_limit
                      ~data ~budget metric
                  in
                  let name =
                    Printf.sprintf "n=%d b=%d cap=%b %s" (Array.length data)
                      budget cap_budget layout
                  in
                  check_minmax_pair name r_flat r_ref)
                [ ("dense", None); ("spill", Some 1) ])
            [ true; false ])
        [ Minmax_dp.Binary_search; Minmax_dp.Linear_scan ])
    (minmax_cases rng @ minmax_edge_cases rng)

(* The spill layout (rows allocated lazily above dense_limit) must be
   indistinguishable from the dense one; dense_limit:1 forces every
   table into the spill path. *)
let test_minmax_spill_layout () =
  let rng = Prng.create ~seed:43 in
  List.iter
    (fun (data, budget, metric) ->
      let dense = Minmax_dp.solve ~impl:Flat ~data ~budget metric in
      let spill =
        Minmax_dp.solve ~impl:Flat ~dense_limit:1 ~data ~budget metric
      in
      check_minmax_pair "dense vs spill" spill dense)
    (minmax_cases rng)

let test_minmax_bad_sanity () =
  let data = [| 1.; 2.; 3.; 4. |] in
  List.iter
    (fun (name, impl) ->
      match
        Minmax_dp.solve ~impl ~data ~budget:2 (Metrics.Rel { sanity = 0. })
      with
      | _ -> Alcotest.failf "%s: sanity 0 accepted" name
      | exception Invalid_argument _ -> ())
    [ ("flat", Minmax_dp.Flat); ("reference", Minmax_dp.Reference) ]

(* The [on_state] contract: one call per fresh state (so the count is
   dp_states) in the same order for every kernel and layout, which is
   what lets a state-capped deadline abort each of them after the same
   number of checks. *)
let kernels =
  [
    ("flat dense", Minmax_dp.Flat, None);
    ("flat spill", Minmax_dp.Flat, Some 1);
    ("reference", Minmax_dp.Reference, None);
  ]

let test_on_state_counts () =
  let rng = Prng.create ~seed:73 in
  List.iter
    (fun (data, budget, metric) ->
      List.iter
        (fun (name, impl, dense_limit) ->
          let calls = ref 0 in
          let r =
            Minmax_dp.solve ~impl ?dense_limit
              ~on_state:(fun () -> incr calls)
              ~data ~budget metric
          in
          checki (name ^ ": hook calls = dp_states") r.dp_states !calls)
        kernels)
    (minmax_cases rng @ minmax_edge_cases rng)

let test_deadline_parity () =
  let rng = Prng.create ~seed:79 in
  let data = signal rng 64 in
  let full = Minmax_dp.solve ~impl:Reference ~data ~budget:8 Metrics.Abs in
  List.iter
    (fun cap ->
      let checks (name, impl, dense_limit) =
        let d = Deadline.create ~state_cap:cap () in
        match
          Minmax_dp.solve ~impl ?dense_limit
            ~on_state:(fun () -> Deadline.tick d)
            ~data ~budget:8 Metrics.Abs
        with
        | _ -> Alcotest.failf "%s: state_cap %d did not abort" name cap
        | exception Deadline.Deadline_exceeded st -> st.Deadline.checks
      in
      let counts = List.map checks kernels in
      List.iter
        (fun got -> checki (Printf.sprintf "state_cap %d: checks" cap) (cap + 1) got)
        counts)
    [ 0; 1; 17; full.dp_states / 2; full.dp_states - 1 ]

(* Allocation regression: the flat kernel allocates nothing per state
   (its tables live outside the OCaml heap), so on a fixed input the
   minor words of a whole solve — the per-solve set-up and the
   synopsis — stay far below one word per state. The dense bound is the
   performance contract of docs/KERNELS.md. On this input the dense
   layout measured 0.042 words/state and the spill layout 0.046 (the
   closure-based kernel this one replaced: 69.6 and 87.1); the spill
   bound is twice the measured value. *)
let minor_words_per_state ?dense_limit () =
  let data =
    Wavesyn_datagen.Signal.zipf ~rng:(Prng.create ~seed:7) ~n:256 ~alpha:1.2
      ~scale:100.
  in
  let solve () = Minmax_dp.solve ?dense_limit ~data ~budget:16 Metrics.Abs in
  ignore (solve ());
  let w0 = Gc.minor_words () in
  let r = solve () in
  (Gc.minor_words () -. w0) /. float_of_int r.dp_states

let test_minmax_allocation () =
  let dense = minor_words_per_state () in
  let spill = minor_words_per_state ~dense_limit:1 () in
  check (Printf.sprintf "dense: %.3f words/state <= 2" dense) true (dense <= 2.);
  check (Printf.sprintf "spill: %.3f words/state <= 0.092" spill) true
    (spill <= 0.092)

let test_budget_for_flat_vs_reference () =
  let rng = Prng.create ~seed:47 in
  List.iter
    (fun domains ->
      with_pool ~domains (fun p ->
          for _ = 1 to 10 do
            let data = signal rng 32 in
            let target = Prng.float rng 30. in
            let run impl =
              Minmax_dp.budget_for ~pool:p ~impl ~data ~target Metrics.Abs
            in
            let s_ref = run Minmax_dp.Reference in
            let s_flat = run Minmax_dp.Flat in
            let name = Printf.sprintf "budget_for domains=%d" domains in
            check (name ^ ": feasible") true (s_flat.feasible = s_ref.feasible);
            check_minmax_pair name s_flat.best s_ref.best
          done))
    [ 1; 4 ]

(* --- Md_dp solvers: Flat vs Reference --- *)

let test_approx_abs_flat_vs_reference () =
  let rng = Prng.create ~seed:53 in
  List.iter
    (fun domains ->
      with_pool ~domains (fun p ->
          List.iter
            (fun n ->
              let data = signal rng n in
              let nd = Ndarray.of_flat_array ~dims:[| n |] data in
              let run impl =
                Approx_abs.solve ~pool:p ~impl ~data:nd ~budget:(n / 4)
                  ~epsilon:0.3 ()
              in
              let r_ref = run Md_dp.Reference in
              let r_flat = run Md_dp.Flat in
              let name = Printf.sprintf "approx_abs n=%d domains=%d" n domains in
              check (name ^ ": max_err bits") true
                (same_bits r_flat.max_err r_ref.max_err);
              check (name ^ ": tau bits") true (same_bits r_flat.tau r_ref.tau);
              check (name ^ ": synopsis") true (r_flat.synopsis = r_ref.synopsis);
              checki (name ^ ": dp_states") r_ref.dp_states r_flat.dp_states;
              checki (name ^ ": sweeps") r_ref.sweeps r_flat.sweeps)
            [ 16; 32 ]))
    [ 1; 4 ]

let test_approx_abs_2d_flat_vs_reference () =
  let rng = Prng.create ~seed:59 in
  let nd =
    Ndarray.of_flat_array ~dims:[| 8; 8 |]
      (Array.init 64 (fun _ -> Prng.float rng 100.))
  in
  let run impl = Approx_abs.solve ~impl ~data:nd ~budget:10 ~epsilon:0.4 () in
  let r_ref = run Md_dp.Reference in
  let r_flat = run Md_dp.Flat in
  check "2d: max_err bits" true (same_bits r_flat.max_err r_ref.max_err);
  check "2d: synopsis" true (r_flat.synopsis = r_ref.synopsis);
  checki "2d: dp_states" r_ref.dp_states r_flat.dp_states

let test_approx_additive_flat_vs_reference () =
  let rng = Prng.create ~seed:61 in
  List.iter
    (fun metric ->
      List.iter
        (fun n ->
          let data = signal rng n in
          let run impl =
            Approx_additive.solve_1d ~impl ~data ~budget:(n / 4) ~epsilon:0.2
              metric
          in
          let err_ref, syn_ref = run Md_dp.Reference in
          let err_flat, syn_flat = run Md_dp.Flat in
          let name = Printf.sprintf "additive n=%d" n in
          check (name ^ ": measured bits") true (same_bits err_flat err_ref);
          check (name ^ ": synopsis") true (syn_flat = syn_ref))
        [ 16; 32 ])
    [ Metrics.Abs; Metrics.Rel { sanity = 3. } ]

(* A shared prebuilt skeleton must not change anything. *)
let test_md_dp_shared_skeleton () =
  let rng = Prng.create ~seed:67 in
  let data = signal rng 32 in
  let nd = Ndarray.of_flat_array ~dims:[| 32 |] data in
  let tree = Wavesyn_haar.Md_tree.of_data nd in
  let sk = Md_dp.skeleton ~tree in
  let wavelet = Wavesyn_haar.Md_tree.wavelet tree in
  let cfg =
    {
      Md_dp.coeff_value = (fun pos -> Ndarray.get_flat wavelet pos);
      round_error = Fun.id;
      key_of_error = (fun e -> Hashtbl.hash (Int64.bits_of_float e));
      forced = (fun _ -> false);
      leaf_denominator = (fun _ -> 1.);
    }
  in
  List.iter
    (fun budget ->
      let with_sk = Md_dp.run ~skeleton:sk ~tree ~budget cfg in
      let without = Md_dp.run ~tree ~budget cfg in
      match (with_sk, without) with
      | Some a, Some b ->
          check "skeleton: value bits" true (same_bits a.value b.value);
          check "skeleton: retained" true (a.retained = b.retained);
          checki "skeleton: dp_states" b.dp_states a.dp_states
      | _ -> Alcotest.fail "unexpected infeasible")
    [ 0; 3; 8 ]

(* --- grain --- *)

let test_default_grain () =
  checki "zero items" 1 (Pool.default_grain ~items:0 ~domains:4);
  checki "few items" 1 (Pool.default_grain ~items:7 ~domains:4);
  checki "4 chunks per domain" 8 (Pool.default_grain ~items:128 ~domains:4);
  checki "single domain" 25 (Pool.default_grain ~items:100 ~domains:1)

let test_grain_identity () =
  List.iter
    (fun domains ->
      with_pool ~domains (fun p ->
          List.iter
            (fun grain ->
              List.iter
                (fun n ->
                  let got = Pool.map_chunked ~grain p n (fun i -> (i * 7) + 1) in
                  let want = Array.init n (fun i -> (i * 7) + 1) in
                  check
                    (Printf.sprintf "domains=%d grain=%d n=%d" domains grain n)
                    true (got = want))
                [ 0; 1; 5; 64; 129 ])
            [ 1; 3; 16; 1000 ]))
    [ 1; 4 ]

let test_grain_instruments () =
  let reg = Registry.create () in
  let p = Pool.create ~obs:reg ~domains:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  ignore (Pool.map_chunked ~grain:8 p 40 (fun i -> i));
  (* 40 items in chunks of 8 -> 5 chunks; par.tasks counts items. *)
  checki "par.tasks = items" 40
    (Metric.counter_value (Registry.counter reg "par.tasks"));
  checki "par.chunks = ceil(items/grain)" 5
    (Metric.counter_value (Registry.counter reg "par.chunks"));
  check "par.grain = grain" true
    (Metric.gauge_value (Registry.gauge reg "par.grain") = 8.)

let () =
  Alcotest.run "kernels"
    [
      ( "minmax flat",
        [
          Alcotest.test_case "flat = reference (bit-identical)" `Quick
            test_minmax_flat_vs_reference;
          Alcotest.test_case "dense = spill layout" `Quick
            test_minmax_spill_layout;
          Alcotest.test_case "budget_for flat = reference, pooled" `Quick
            test_budget_for_flat_vs_reference;
          Alcotest.test_case "sanity 0 rejected by both kernels" `Quick
            test_minmax_bad_sanity;
          Alcotest.test_case "on_state count = dp_states" `Quick
            test_on_state_counts;
          Alcotest.test_case "state-capped deadline parity" `Quick
            test_deadline_parity;
          Alcotest.test_case "no allocation per state" `Quick
            test_minmax_allocation;
        ] );
      ( "md flat",
        [
          Alcotest.test_case "approx-abs flat = reference, pooled" `Quick
            test_approx_abs_flat_vs_reference;
          Alcotest.test_case "approx-abs 2d flat = reference" `Quick
            test_approx_abs_2d_flat_vs_reference;
          Alcotest.test_case "approx-additive flat = reference" `Quick
            test_approx_additive_flat_vs_reference;
          Alcotest.test_case "shared skeleton is inert" `Quick
            test_md_dp_shared_skeleton;
        ] );
      ( "grain",
        [
          Alcotest.test_case "default_grain arithmetic" `Quick
            test_default_grain;
          Alcotest.test_case "grain never changes results" `Quick
            test_grain_identity;
          Alcotest.test_case "par.tasks/chunks/grain instruments" `Quick
            test_grain_instruments;
        ] );
    ]
