(* Flat-vs-reference kernel equivalence: the flat memo layouts of
   Minmax_dp and Md_dp (docs/KERNELS.md) must return bit-identical
   results — max_err bits, synopsis, dp_states — to the original
   tuple-keyed Hashtbl kernels, across random signals, budgets,
   metrics, split strategies, the dense and spill layouts, and pool
   sizes 1 and 4. For both engines also the [on_state] contract and
   the flat kernel's allocation profile. Plus the grain knob of the
   pool fan-out. *)

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

let check_additive_pair name (r_flat : Approx_additive.result)
    (r_ref : Approx_additive.result) =
  check (name ^ ": bound bits") true (same_bits r_flat.bound r_ref.bound);
  check (name ^ ": measured bits") true (same_bits r_flat.measured r_ref.measured);
  check (name ^ ": synopsis") true (r_flat.synopsis = r_ref.synopsis);
  checki (name ^ ": dp_states") r_ref.dp_states r_flat.dp_states

let check_abs_pair name (r_flat : Approx_abs.result) (r_ref : Approx_abs.result) =
  check (name ^ ": max_err bits") true (same_bits r_flat.max_err r_ref.max_err);
  check (name ^ ": tau bits") true (same_bits r_flat.tau r_ref.tau);
  check (name ^ ": synopsis") true (r_flat.synopsis = r_ref.synopsis);
  checki (name ^ ": dp_states") r_ref.dp_states r_flat.dp_states;
  checki (name ^ ": sweeps") r_ref.sweeps r_flat.sweeps

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
              check_abs_pair
                (Printf.sprintf "approx_abs n=%d domains=%d" n domains)
                (run Md_dp.Flat) (run Md_dp.Reference))
            [ 16; 32 ]))
    [ 1; 4 ]

(* Multi-dimensional shapes: the build benchmark's 16x16 zipf grid (B=8,
   epsilon 0.25), an 8x8 grid at budgets 0, 1, its cap (every cell) and
   past it, and a 2x2x2 cube. *)
let build_grid seed =
  Wavesyn_datagen.Signal.grid_zipf ~rng:(Prng.create ~seed) ~side:16 ~alpha:1.2
    ~scale:100.

let grid_8x8 =
  let rng = Prng.create ~seed:89 in
  Ndarray.of_flat_array ~dims:[| 8; 8 |]
    (Array.init 64 (fun _ -> Float.round (Prng.float rng 50.)))

let cube_2x2x2 =
  let rng = Prng.create ~seed:97 in
  Ndarray.of_flat_array ~dims:[| 2; 2; 2 |]
    (Array.init 8 (fun _ -> Prng.float rng 20.))

let test_approx_abs_md_flat_vs_reference () =
  let rng = Prng.create ~seed:59 in
  let random_8x8 =
    Ndarray.of_flat_array ~dims:[| 8; 8 |]
      (Array.init 64 (fun _ -> Prng.float rng 100.))
  in
  List.iter
    (fun (name, data, budget, epsilon) ->
      let run impl = Approx_abs.solve ~impl ~data ~budget ~epsilon () in
      check_abs_pair name (run Md_dp.Flat) (run Md_dp.Reference))
    ([ ("2d", random_8x8, 10, 0.4) ]
    @ List.map
        (fun b -> (Printf.sprintf "8x8 b=%d" b, grid_8x8, b, 0.5))
        [ 0; 1; 64; 70 ]
    @ List.map
        (fun b -> (Printf.sprintf "2x2x2 b=%d" b, cube_2x2x2, b, 0.3))
        [ 0; 2; 5; 8 ])

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
    [ Metrics.Abs; Metrics.Rel { sanity = 3. } ];
  let build = build_grid 83 and rel = Metrics.Rel { sanity = 1. } in
  List.iter
    (fun (name, data, budget, epsilon, metric) ->
      let run impl = Approx_additive.solve ~impl ~data ~budget ~epsilon metric in
      check_additive_pair name (run Md_dp.Flat) (run Md_dp.Reference))
    ([
       ("16x16 abs", build, 8, 0.25, Metrics.Abs);
       ("16x16 rel", build, 8, 0.25, rel);
     ]
    @ List.map
        (fun b -> (Printf.sprintf "8x8 b=%d" b, grid_8x8, b, 0.25, Metrics.Abs))
        [ 0; 1; 64; 70 ]
    @ List.map
        (fun b -> (Printf.sprintf "2x2x2 b=%d" b, cube_2x2x2, b, 0.2, rel))
        [ 0; 2; 5; 8 ])

(* Pseudo_poly's integer configuration — integral data scaled by the
   cell count, exact errors — run through Md_dp.run under each kernel. *)
let pseudo_poly_config ~tree ~scale metric =
  let data = Wavesyn_haar.Md_tree.data tree in
  let wavelet = Wavesyn_haar.Md_tree.wavelet tree in
  {
    Md_dp.coeff_value =
      (fun pos -> Float.round (Ndarray.get_flat wavelet pos *. scale));
    rounding = Md_dp.Exact;
    forced = (fun _ -> false);
    leaf_denominator = (fun cell -> Metrics.denominator metric (Ndarray.get data cell));
  }

let test_pseudo_poly_config () =
  let rng = Prng.create ~seed:101 in
  List.iter
    (fun dims ->
      let size = Array.fold_left ( * ) 1 dims in
      let data =
        Ndarray.of_flat_array ~dims
          (Array.init size (fun _ -> float_of_int (Prng.int rng 40)))
      in
      let tree = Wavesyn_haar.Md_tree.of_data data in
      List.iter
        (fun metric ->
          let cfg = pseudo_poly_config ~tree ~scale:(float_of_int size) metric in
          List.iter
            (fun budget ->
              let name =
                Printf.sprintf "pseudo-poly %dd size=%d b=%d" (Array.length dims)
                  size budget
              in
              match
                ( Md_dp.run ~impl:Md_dp.Flat ~tree ~budget cfg,
                  Md_dp.run ~impl:Md_dp.Reference ~tree ~budget cfg )
              with
              | Some a, Some b ->
                  check (name ^ ": value bits") true (same_bits a.value b.value);
                  check (name ^ ": retained") true (a.retained = b.retained);
                  checki (name ^ ": dp_states") b.dp_states a.dp_states
              | _ -> Alcotest.fail (name ^ ": unexpected infeasible"))
            [ 0; 1; 3; size ])
        [ Metrics.Abs; Metrics.Rel { sanity = 2. } ])
    [ [| 16 |]; [| 4; 4 |]; [| 2; 2; 2 |] ]

(* The [on_state] contract for Md_dp, as for Minmax_dp above: one call
   per fresh state under both kernels, and a state-capped deadline
   aborts after exactly cap + 1 checks. Approx_abs takes no hook, so its
   truncated configuration (forced large coefficients, exact integral
   errors) runs through Md_dp.run directly. *)
let md_kernels = [ ("flat", Md_dp.Flat); ("reference", Md_dp.Reference) ]

let approx_abs_config ~tree ~tau ~k_tau =
  let wavelet = Wavesyn_haar.Md_tree.wavelet tree in
  {
    Md_dp.coeff_value =
      (fun pos -> Float.floor (Ndarray.get_flat wavelet pos /. k_tau));
    rounding = Md_dp.Exact;
    forced = (fun pos -> Float.abs (Ndarray.get_flat wavelet pos) > tau);
    leaf_denominator = (fun _ -> 1.);
  }

let test_md_on_state_counts () =
  let data = build_grid 103 in
  let tree = Wavesyn_haar.Md_tree.of_data data in
  List.iter
    (fun (name, impl) ->
      List.iter
        (fun metric ->
          let calls = ref 0 in
          let r =
            Approx_additive.solve ~impl
              ~on_state:(fun () -> incr calls)
              ~data ~budget:8 ~epsilon:0.25 metric
          in
          checki (name ^ " additive: hook calls = dp_states") r.dp_states !calls)
        [ Metrics.Abs; Metrics.Rel { sanity = 1. } ];
      List.iter
        (fun (tau, k_tau) ->
          let calls = ref 0 in
          match
            Md_dp.run ~impl
              ~on_state:(fun () -> incr calls)
              ~tree ~budget:8
              (approx_abs_config ~tree ~tau ~k_tau)
          with
          | Some r ->
              checki (name ^ " abs config: hook calls = dp_states") r.dp_states
                !calls
          | None -> Alcotest.fail (name ^ ": unexpected infeasible"))
        [ (512., 8.); (1024., 32.); (4096., 64.) ])
    md_kernels

let test_md_deadline_parity () =
  let data = build_grid 107 in
  let solve ?on_state impl =
    Approx_additive.solve ?on_state ~impl ~data ~budget:8 ~epsilon:0.25
      (Metrics.Rel { sanity = 1. })
  in
  let full = solve Md_dp.Reference in
  List.iter
    (fun cap ->
      List.iter
        (fun (name, impl) ->
          let d = Deadline.create ~state_cap:cap () in
          match solve ~on_state:(fun () -> Deadline.tick d) impl with
          | _ -> Alcotest.failf "%s: state_cap %d did not abort" name cap
          | exception Deadline.Deadline_exceeded st ->
              checki
                (Printf.sprintf "%s state_cap %d: checks" name cap)
                (cap + 1) st.Deadline.checks)
        md_kernels)
    [ 0; 1; 17; full.dp_states / 2; full.dp_states - 1 ]

(* Allocation regression: the flat kernel allocates nothing per state,
   so the minor words of the build benchmark's Md_dp solves (approx-abs
   and approx-additive on the 16x16 grid, B=8) spread over their fresh
   states are what remains per solve: set-up, the tau sweep's synopsis
   measurements, the outcome. On this input approx-abs measured 1.33
   words/state and approx-additive 3.75; the bounds are twice that. The
   closure-based kernel this one replaced allocated 278 and 472. *)
let md_words_per_state solve =
  ignore (solve ());
  let w0 = Gc.minor_words () in
  let states = solve () in
  (Gc.minor_words () -. w0) /. float_of_int states

let test_md_allocation () =
  let data = build_grid 7 in
  let abs =
    md_words_per_state (fun () ->
        (Approx_abs.solve ~data ~budget:8 ~epsilon:0.25 ()).dp_states)
  in
  let additive =
    md_words_per_state (fun () ->
        (Approx_additive.solve ~data ~budget:8 ~epsilon:0.25
           (Metrics.Rel { sanity = 1. }))
          .dp_states)
  in
  check (Printf.sprintf "approx-abs: %.3f words/state <= 2.66" abs) true
    (abs <= 2.66);
  check (Printf.sprintf "approx-additive: %.3f words/state <= 7.50" additive)
    true (additive <= 7.50)

(* A shared prebuilt skeleton must not change anything, under either
   rounding. *)
let test_md_dp_shared_skeleton () =
  let rng = Prng.create ~seed:67 in
  let data = signal rng 32 in
  let nd = Ndarray.of_flat_array ~dims:[| 32 |] data in
  let tree = Wavesyn_haar.Md_tree.of_data nd in
  let sk = Md_dp.skeleton ~tree in
  let wavelet = Wavesyn_haar.Md_tree.wavelet tree in
  let configs =
    [
      ( "exact",
        {
          Md_dp.coeff_value =
            (fun pos -> Float.round (Ndarray.get_flat wavelet pos *. 8.));
          rounding = Md_dp.Exact;
          forced = (fun _ -> false);
          leaf_denominator = (fun _ -> 1.);
        } );
      ( "breakpoints",
        {
          Md_dp.coeff_value = (fun pos -> Ndarray.get_flat wavelet pos);
          rounding = Md_dp.Breakpoints { epsilon = 0.1; vmin = 0.01; vmax = 1000. };
          forced = (fun _ -> false);
          leaf_denominator = (fun _ -> 1.);
        } );
    ]
  in
  List.iter
    (fun (name, cfg) ->
      List.iter
        (fun budget ->
          let with_sk = Md_dp.run ~skeleton:sk ~tree ~budget cfg in
          let without = Md_dp.run ~tree ~budget cfg in
          match (with_sk, without) with
          | Some a, Some b ->
              check (name ^ " skeleton: value bits") true
                (same_bits a.value b.value);
              check (name ^ " skeleton: retained") true (a.retained = b.retained);
              checki (name ^ " skeleton: dp_states") b.dp_states a.dp_states
          | _ -> Alcotest.fail "unexpected infeasible")
        [ 0; 3; 8 ])
    configs

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
          Alcotest.test_case "approx-abs multi-d flat = reference" `Quick
            test_approx_abs_md_flat_vs_reference;
          Alcotest.test_case "approx-additive flat = reference" `Quick
            test_approx_additive_flat_vs_reference;
          Alcotest.test_case "shared skeleton is inert" `Quick
            test_md_dp_shared_skeleton;
          Alcotest.test_case "pseudo-poly config flat = reference" `Quick
            test_pseudo_poly_config;
          Alcotest.test_case "on_state count = dp_states" `Quick
            test_md_on_state_counts;
          Alcotest.test_case "state-capped deadline parity" `Quick
            test_md_deadline_parity;
          Alcotest.test_case "no allocation per state" `Quick
            test_md_allocation;
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
