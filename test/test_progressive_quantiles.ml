(* Tests for Progressive (nested refinement chains), Quantiles, and
   bounded range sums. *)

module Progressive = Wavesyn_core.Progressive
module Minmax_dp = Wavesyn_core.Minmax_dp
module Greedy_maxerr = Wavesyn_baselines.Greedy_maxerr
module Quantiles = Wavesyn_aqp.Quantiles
module Synopsis = Wavesyn_synopsis.Synopsis
module Metrics = Wavesyn_synopsis.Metrics
module Range_query = Wavesyn_synopsis.Range_query
module Greedy_l2 = Wavesyn_baselines.Greedy_l2
module Signal = Wavesyn_datagen.Signal
module Prng = Wavesyn_util.Prng
module Float_util = Wavesyn_util.Float_util

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))
let checki = Alcotest.(check int)

let random_data ~seed n =
  let rng = Prng.create ~seed in
  Array.init n (fun _ -> Prng.float rng 40. -. 20.)

(* --- Progressive --- *)

let test_progressive_chain_structure () =
  let data = random_data ~seed:1 32 in
  let p = Progressive.build ~data ~max_budget:8 Metrics.Abs in
  let steps = Progressive.steps p in
  checki "eight steps" 8 (List.length steps);
  List.iteri
    (fun k s -> checki "budget numbering" (k + 1) s.Progressive.budget)
    steps;
  (* No repeated coefficients. *)
  let coeffs = List.map (fun s -> s.Progressive.coefficient) steps in
  checki "distinct coefficients" 8 (List.length (List.sort_uniq compare coeffs))

let test_progressive_guarantees_monotone () =
  let data = random_data ~seed:2 64 in
  List.iter
    (fun metric ->
      let p = Progressive.build ~data ~max_budget:16 metric in
      let prev = ref (Progressive.initial_guarantee p) in
      List.iter
        (fun s ->
          check "guarantee never grows" true (s.Progressive.guarantee <= !prev +. 1e-9);
          prev := s.Progressive.guarantee)
        (Progressive.steps p))
    [ Metrics.Abs; Metrics.Rel { sanity = 1. } ]

let test_progressive_guarantees_exact () =
  let data = random_data ~seed:3 32 in
  let p = Progressive.build ~data ~max_budget:6 Metrics.Abs in
  for b = 0 to 6 do
    let syn = Progressive.synopsis_at p ~budget:b in
    let measured = Metrics.of_synopsis Metrics.Abs ~data syn in
    check
      (Printf.sprintf "prefix %d guarantee matches measurement" b)
      true
      (Float_util.approx_equal ~eps:1e-9 measured (Progressive.guarantee_at p ~budget:b))
  done

let test_progressive_prefixes_nested () =
  let data = random_data ~seed:4 32 in
  let p = Progressive.build ~data ~max_budget:8 Metrics.Abs in
  for b = 1 to 8 do
    let small = Synopsis.coeffs (Progressive.synopsis_at p ~budget:(b - 1)) in
    let large = Synopsis.coeffs (Progressive.synopsis_at p ~budget:b) in
    check
      (Printf.sprintf "prefix %d nested in %d" (b - 1) b)
      true
      (List.for_all (fun c -> List.mem c large) small)
  done

let test_progressive_matches_greedy_maxerr () =
  (* The chain's prefix of size B is exactly the greedy heuristic's
     output for budget B. *)
  let data = random_data ~seed:5 32 in
  let p = Progressive.build ~data ~max_budget:6 Metrics.Abs in
  List.iter
    (fun b ->
      let chain = Progressive.synopsis_at p ~budget:b in
      let greedy = Greedy_maxerr.threshold ~data ~budget:b Metrics.Abs in
      check
        (Printf.sprintf "prefix %d equals greedy" b)
        true
        (List.sort compare (Synopsis.coeffs chain)
        = List.sort compare (Synopsis.coeffs greedy)))
    [ 1; 3; 6 ]

let test_progressive_price_of_nestedness () =
  (* Prefixes can be worse than the per-budget optimum, never better. *)
  let data = random_data ~seed:6 32 in
  let p = Progressive.build ~data ~max_budget:8 Metrics.Abs in
  for b = 0 to 8 do
    let opt = (Minmax_dp.solve ~data ~budget:b Metrics.Abs).Minmax_dp.max_err in
    check
      (Printf.sprintf "prefix %d >= optimum" b)
      true
      (Progressive.guarantee_at p ~budget:b >= opt -. 1e-9)
  done

let test_progressive_exhausts_coefficients () =
  let data = [| 5.; 5.; 5.; 5. |] in
  (* only c0 is non-zero *)
  let p = Progressive.build ~data ~max_budget:10 Metrics.Abs in
  checki "chain stops at non-zero count" 1 (List.length (Progressive.steps p));
  checkf "final guarantee zero" 0. (Progressive.guarantee_at p ~budget:10)

(* --- Quantiles --- *)

let test_quantiles_exact_reference () =
  let data = [| 1.; 1.; 2.; 4. |] in
  (* cumulative: 1, 2, 4, 8; total 8 *)
  checki "q=0" 0 (Quantiles.exact data ~q:0.);
  checki "q=0.25" 1 (Quantiles.exact data ~q:0.25);
  checki "median" 2 (Quantiles.exact data ~q:0.5);
  checki "q=1" 3 (Quantiles.exact data ~q:1.)

let test_quantiles_full_synopsis_matches_exact () =
  let rng = Prng.create ~seed:7 in
  let data = Array.init 64 (fun _ -> Prng.float rng 10.) in
  let syn = Greedy_l2.threshold ~data ~budget:64 in
  List.iter
    (fun q ->
      checki
        (Printf.sprintf "q=%g" q)
        (Quantiles.exact data ~q)
        (Quantiles.estimate syn ~q))
    [ 0.1; 0.25; 0.5; 0.75; 0.9 ]

let test_quantiles_small_synopsis_close () =
  let rng = Prng.create ~seed:8 in
  let bumps = Signal.gaussian_bumps ~rng ~n:128 ~bumps:3 ~amplitude:100. in
  let data = Array.map (fun x -> x +. 1.) bumps in
  let syn = Greedy_l2.threshold ~data ~budget:16 in
  List.iter
    (fun q ->
      let e = Quantiles.exact data ~q in
      let a = Quantiles.estimate syn ~q in
      check
        (Printf.sprintf "q=%g within 8 positions (%d vs %d)" q a e)
        true
        (abs (a - e) <= 8))
    [ 0.25; 0.5; 0.75 ]

(* The query server's QUANTILE hot path: the boundary q values a remote
   client can legally send, on full and thresholded synopses alike. *)
let test_quantiles_boundary_q () =
  let data = [| 1.; 1.; 2.; 4. |] in
  let syn = Greedy_l2.threshold ~data ~budget:4 in
  (* q=0: the smallest position whose cumulative reaches 0 — position 0
     whenever the first reconstructed frequency is non-negative. *)
  checki "estimate q=0" (Quantiles.exact data ~q:0.) (Quantiles.estimate syn ~q:0.);
  checki "estimate q=0 is 0" 0 (Quantiles.estimate syn ~q:0.);
  (* q=1: the full cumulative mass — never past the domain end. *)
  checki "estimate q=1" (Quantiles.exact data ~q:1.) (Quantiles.estimate syn ~q:1.);
  check "estimate q=1 in domain" true (Quantiles.estimate syn ~q:1. <= 3);
  (* A thresholded synopsis still answers both boundaries in-domain. *)
  let rng = Prng.create ~seed:11 in
  let big = Array.init 64 (fun _ -> Prng.float rng 10.) in
  let small = Greedy_l2.threshold ~data:big ~budget:6 in
  List.iter
    (fun q ->
      let p = Quantiles.estimate small ~q in
      check (Printf.sprintf "q=%g in domain" q) true (p >= 0 && p <= 63))
    [ 0.; 1. ];
  (* Monotonicity across the boundaries: q=0 <= median <= q=1. *)
  let m = Quantiles.median small in
  check "q=0 <= median" true (Quantiles.estimate small ~q:0. <= m);
  check "median <= q=1" true (m <= Quantiles.estimate small ~q:1.);
  (* Degenerate single-cell domain: every q answers position 0. *)
  let one = Synopsis.make ~n:1 [ (0, 3.) ] in
  List.iter
    (fun q -> checki (Printf.sprintf "n=1 q=%g" q) 0 (Quantiles.estimate one ~q))
    [ 0.; 0.5; 1. ]

let test_quantiles_validation () =
  let syn = Synopsis.make ~n:8 [ (0, 1.) ] in
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Quantiles: q must be in [0, 1]")
    (fun () -> ignore (Quantiles.estimate syn ~q:1.5));
  (* NaN fails every comparison, so it must be rejected explicitly,
     not bisected to the last cell. *)
  Alcotest.check_raises "q = nan"
    (Invalid_argument "Quantiles: q must be in [0, 1]")
    (fun () -> ignore (Quantiles.estimate syn ~q:Float.nan));
  Alcotest.check_raises "exact q = nan"
    (Invalid_argument "Quantiles: q must be in [0, 1]")
    (fun () -> ignore (Quantiles.exact [| 1.; 2. |] ~q:Float.nan));
  let zero = Synopsis.make ~n:8 [] in
  Alcotest.check_raises "zero total"
    (Invalid_argument "Quantiles: estimated total is not positive")
    (fun () -> ignore (Quantiles.median zero))

(* --- bounded range sums --- *)

let test_bounded_range_sum_contains_truth () =
  let rng = Prng.create ~seed:9 in
  for trial = 1 to 10 do
    let data = Array.init 64 (fun _ -> Prng.float rng 40. -. 20.) in
    let r = Minmax_dp.solve ~data ~budget:8 Metrics.Abs in
    let bound = r.Minmax_dp.max_err in
    let lo = Prng.int rng 32 in
    let hi = lo + Prng.int rng (64 - lo) in
    let estimate, half =
      Range_query.range_sum_bounded r.Minmax_dp.synopsis ~per_cell_bound:bound
        ~lo ~hi
    in
    let exact = Range_query.range_sum_exact data ~lo ~hi in
    check
      (Printf.sprintf "trial %d interval contains exact (%g in %g +- %g)"
         trial exact estimate half)
      true
      (Float.abs (exact -. estimate) <= half +. 1e-9)
  done

let test_bounded_range_sum_validation () =
  let syn = Synopsis.make ~n:8 [] in
  Alcotest.check_raises "negative bound"
    (Invalid_argument "Range_query.range_sum_bounded: negative bound")
    (fun () ->
      ignore (Range_query.range_sum_bounded syn ~per_cell_bound:(-1.) ~lo:0 ~hi:3))

let () =
  Alcotest.run "progressive_quantiles"
    [
      ( "progressive",
        [
          Alcotest.test_case "chain structure" `Quick test_progressive_chain_structure;
          Alcotest.test_case "guarantees monotone" `Quick test_progressive_guarantees_monotone;
          Alcotest.test_case "guarantees exact" `Quick test_progressive_guarantees_exact;
          Alcotest.test_case "prefixes nested" `Quick test_progressive_prefixes_nested;
          Alcotest.test_case "matches greedy" `Quick test_progressive_matches_greedy_maxerr;
          Alcotest.test_case "price of nestedness" `Quick test_progressive_price_of_nestedness;
          Alcotest.test_case "exhausts coefficients" `Quick test_progressive_exhausts_coefficients;
        ] );
      ( "quantiles",
        [
          Alcotest.test_case "exact reference" `Quick test_quantiles_exact_reference;
          Alcotest.test_case "full synopsis" `Quick test_quantiles_full_synopsis_matches_exact;
          Alcotest.test_case "small synopsis" `Quick test_quantiles_small_synopsis_close;
          Alcotest.test_case "boundary q" `Quick test_quantiles_boundary_q;
          Alcotest.test_case "validation" `Quick test_quantiles_validation;
        ] );
      ( "bounded range sums",
        [
          Alcotest.test_case "interval contains truth" `Quick test_bounded_range_sum_contains_truth;
          Alcotest.test_case "validation" `Quick test_bounded_range_sum_validation;
        ] );
    ]
