(* Tests for the synopsis representation, metrics and range queries. *)

module Haar1d = Wavesyn_haar.Haar1d
module Synopsis = Wavesyn_synopsis.Synopsis
module Metrics = Wavesyn_synopsis.Metrics
module Range_query = Wavesyn_synopsis.Range_query
module Ndarray = Wavesyn_util.Ndarray
module Prng = Wavesyn_util.Prng
module Quantiles = Wavesyn_aqp.Quantiles
module Ladder = Wavesyn_robust.Ladder
module Validate = Wavesyn_robust.Validate
module Float_util = Wavesyn_util.Float_util

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))
let checki = Alcotest.(check int)

let paper_data = [| 2.; 2.; 0.; 2.; 3.; 5.; 4.; 4. |]
let paper_wavelet = Haar1d.decompose paper_data

let full_synopsis =
  Synopsis.of_wavelet ~wavelet:paper_wavelet [ 0; 1; 2; 3; 4; 5; 6; 7 ]

(* --- Synopsis --- *)

let test_make_validates () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Synopsis.make: coefficient index out of range")
    (fun () -> ignore (Synopsis.make ~n:8 [ (9, 1.) ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Synopsis.make: duplicate coefficient index")
    (fun () -> ignore (Synopsis.make ~n:8 [ (3, 1.); (3, 2.) ]));
  Alcotest.check_raises "non pow2 domain"
    (Invalid_argument "Synopsis.make: domain size must be a power of two")
    (fun () -> ignore (Synopsis.make ~n:6 []))

let test_zero_coeffs_dropped () =
  let s = Synopsis.make ~n:8 [ (1, 0.); (2, 3.) ] in
  checki "size counts only non-zeros" 1 (Synopsis.size s);
  check "zero not member" false (Synopsis.mem s 1);
  check "non-zero member" true (Synopsis.mem s 2)

let test_full_reconstruction () =
  let approx = Synopsis.reconstruct full_synopsis in
  Array.iteri (fun i d -> checkf (Printf.sprintf "cell %d" i) d approx.(i)) paper_data

let test_point_matches_reconstruct () =
  let s = Synopsis.of_wavelet ~wavelet:paper_wavelet [ 0; 1; 5 ] in
  let approx = Synopsis.reconstruct s in
  for i = 0 to 7 do
    checkf (Printf.sprintf "point %d" i) approx.(i) (Synopsis.reconstruct_point s i)
  done

let test_empty_synopsis () =
  let s = Synopsis.make ~n:8 [] in
  checki "empty size" 0 (Synopsis.size s);
  check "reconstruct zeros" true
    (Array.for_all (fun x -> x = 0.) (Synopsis.reconstruct s))

let test_serialization_roundtrip () =
  let s = Synopsis.of_wavelet ~wavelet:paper_wavelet [ 0; 2; 6 ] in
  let s' = Synopsis.of_string (Synopsis.to_string s) in
  checki "same n" (Synopsis.n s) (Synopsis.n s');
  check "same coeffs" true (Synopsis.coeffs s = Synopsis.coeffs s')

let test_serialization_rejects_garbage () =
  check "bad input raises" true
    (try
       ignore (Synopsis.of_string "8 foo:bar");
       false
     with Failure _ -> true)

(* A coefficient file is outside input: a non-finite value, an index
   [make] rejects and a domain other than the expected one all fail
   with [Failure], never [Invalid_argument], so the CLI reports them as
   a malformed file. *)
let test_serialization_rejects_non_finite () =
  let fails expected text =
    Alcotest.check_raises text (Failure expected) (fun () ->
        ignore (Synopsis.of_string ~n:8 text))
  in
  List.iter
    (fails "Synopsis.of_string: bad coefficient")
    [ "8 0:inf"; "8 1:-inf"; "8 2:nan"; "8 0:1 3:infinity" ];
  fails "Synopsis.make: coefficient index out of range" "8 9:1";
  fails "Synopsis.make: duplicate coefficient index" "8 1:1 1:2";
  fails "Synopsis.of_string: domain size 16 does not match the expected 8"
    "16 1:1";
  checki "finite coefficients still parse" 2
    (Synopsis.size (Synopsis.of_string ~n:8 "8 0:0x1.8p+1 5:-1e300"))

let test_describe () =
  let s = Synopsis.make ~n:8 [ (0, 2.75); (1, -1.25) ] in
  check "describe" true (Synopsis.describe s = "{c0=2.75; c1=-1.25}")

let test_md_synopsis_roundtrip () =
  let rng = Prng.create ~seed:8 in
  let data = Ndarray.init ~dims:[| 4; 4 |] (fun _ -> Prng.float rng 10.) in
  let tree = Wavesyn_haar.Md_tree.of_data data in
  let all = Wavesyn_haar.Md_tree.all_coeffs tree in
  let syn = Synopsis.Md.of_tree tree all in
  let approx = Synopsis.Md.reconstruct syn in
  check "full md reconstruction" true (Ndarray.equal ~eps:1e-8 data approx);
  (* cell reconstruction agrees with full reconstruction *)
  Ndarray.iteri
    (fun idx v -> checkf "md cell" v (Synopsis.Md.reconstruct_cell syn idx))
    approx

let test_md_validates () =
  Alcotest.check_raises "md out of range"
    (Invalid_argument "Synopsis.Md.make: coefficient position out of range")
    (fun () -> ignore (Synopsis.Md.make ~dims:[| 2; 2 |] [ (4, 1.) ]))

(* --- Metrics --- *)

let test_denominator () =
  checkf "abs" 1. (Metrics.denominator Metrics.Abs 42.);
  checkf "rel large" 42. (Metrics.denominator (Metrics.Rel { sanity = 5. }) 42.);
  checkf "rel small" 5. (Metrics.denominator (Metrics.Rel { sanity = 5. }) 2.);
  checkf "rel negative" 42. (Metrics.denominator (Metrics.Rel { sanity = 5. }) (-42.))

let test_metric_validation () =
  Alcotest.check_raises "non-positive sanity"
    (Invalid_argument "Metrics: sanity bound must be positive")
    (fun () ->
      ignore (Metrics.denominator (Metrics.Rel { sanity = 0. }) 1.))

let test_max_error () =
  let data = [| 10.; 0.; -5. |] in
  let approx = [| 9.; 2.; -5. |] in
  checkf "max abs" 2. (Metrics.max_error Metrics.Abs ~data ~approx);
  (* rel errors: 1/10, 2/1, 0/5 -> 2 *)
  checkf "max rel" 2.
    (Metrics.max_error (Metrics.Rel { sanity = 1. }) ~data ~approx)

let test_summary () =
  let data = [| 4.; 2.; 0.; 0. |] in
  let approx = [| 3.; 2.; 1.; 0. |] in
  let s = Metrics.summary ~sanity:1. ~data ~approx () in
  checkf "max_abs" 1. s.Metrics.max_abs;
  checkf "mean_abs" 0.5 s.Metrics.mean_abs;
  checkf "rms" (Float.sqrt 0.5) s.Metrics.rms;
  checki "argmax_abs" 0 s.Metrics.argmax_abs;
  checki "argmax_rel is the small value" 2 s.Metrics.argmax_rel

let test_length_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Metrics: data / approximation length mismatch")
    (fun () ->
      ignore (Metrics.max_error Metrics.Abs ~data:[| 1. |] ~approx:[| 1.; 2. |]))

(* --- Range queries --- *)

let test_range_sum_exact () =
  checkf "full" 22. (Range_query.range_sum_exact paper_data ~lo:0 ~hi:7);
  checkf "middle" 10. (Range_query.range_sum_exact paper_data ~lo:3 ~hi:5);
  checkf "single" 3. (Range_query.range_sum_exact paper_data ~lo:4 ~hi:4)

let test_range_sum_full_synopsis_is_exact () =
  for lo = 0 to 7 do
    for hi = lo to 7 do
      checkf
        (Printf.sprintf "range [%d,%d]" lo hi)
        (Range_query.range_sum_exact paper_data ~lo ~hi)
        (Range_query.range_sum full_synopsis ~lo ~hi)
    done
  done

let test_range_avg_and_selectivity () =
  checkf "avg" (22. /. 8.) (Range_query.range_avg full_synopsis ~lo:0 ~hi:7);
  checkf "selectivity" (10. /. 22.)
    (Range_query.selectivity full_synopsis ~lo:3 ~hi:5)

let test_range_bounds_checked () =
  Alcotest.check_raises "bad range"
    (Invalid_argument "Range_query: invalid range bounds")
    (fun () -> ignore (Range_query.range_sum full_synopsis ~lo:5 ~hi:2))

(* The query server's hot path (docs/SERVING.md): the range shapes a
   remote client can legally send, pinned on a {e thresholded} synopsis
   (retained detail coefficients partially covering the range), plus
   every empty/out-of-domain shape, which must raise — the server maps
   the exception to a structured out-of-range reply. *)
let test_range_server_hot_path_corners () =
  let syn = Synopsis.of_wavelet ~wavelet:paper_wavelet [ 0; 1; 5 ] in
  let n = Synopsis.n syn in
  (* Single-cell ranges agree with point reconstruction everywhere. *)
  for i = 0 to n - 1 do
    checkf
      (Printf.sprintf "single cell [%d,%d]" i i)
      (Synopsis.reconstruct_point syn i)
      (Range_query.range_sum syn ~lo:i ~hi:i)
  done;
  (* The full-domain range: detail coefficients cancel over their whole
     support, so only c0 contributes, n * c0. *)
  checkf "full domain is n*c0" (8. *. 2.75)
    (Range_query.range_sum syn ~lo:0 ~hi:(n - 1));
  (* Prefix sums stitch: sum[0,i] + sum[i+1,n-1] = sum[0,n-1]. *)
  for i = 0 to n - 2 do
    checkf
      (Printf.sprintf "prefix split at %d" i)
      (Range_query.range_sum syn ~lo:0 ~hi:(n - 1))
      (Range_query.range_sum syn ~lo:0 ~hi:i
      +. Range_query.range_sum syn ~lo:(i + 1) ~hi:(n - 1))
  done;
  (* Every illegal shape raises (empty lo>hi, either bound outside). *)
  List.iter
    (fun (lo, hi) ->
      Alcotest.check_raises
        (Printf.sprintf "range [%d,%d] rejected" lo hi)
        (Invalid_argument "Range_query: invalid range bounds")
        (fun () -> ignore (Range_query.range_sum syn ~lo ~hi)))
    [ (3, 2); (-1, 4); (0, 8); (8, 8); (-2, -1) ];
  (* An empty (budget-0) synopsis still answers: everything is 0. *)
  let empty = Synopsis.make ~n:8 [] in
  checkf "empty synopsis sums to zero" 0.
    (Range_query.range_sum empty ~lo:0 ~hi:7)

let test_selectivity_zero_total () =
  let s = Synopsis.make ~n:8 [] in
  checkf "zero total" 0. (Range_query.selectivity s ~lo:0 ~hi:3)

let test_md_range_sum_full_synopsis () =
  let rng = Prng.create ~seed:9 in
  let data = Ndarray.init ~dims:[| 8; 8 |] (fun _ -> Prng.float rng 10. -. 5.) in
  let tree = Wavesyn_haar.Md_tree.of_data data in
  let syn = Synopsis.Md.of_tree tree (Wavesyn_haar.Md_tree.all_coeffs tree) in
  List.iter
    (fun ranges ->
      let exact = Range_query.range_sum_exact_md data ~ranges in
      let approx = Range_query.range_sum_md syn ~ranges in
      check
        (Printf.sprintf "md range (%g vs %g)" exact approx)
        true
        (Float_util.approx_equal ~eps:1e-6 exact approx))
    [
      [| (0, 7); (0, 7) |];
      [| (0, 0); (0, 0) |];
      [| (2, 5); (1, 6) |];
      [| (3, 3); (0, 7) |];
      [| (1, 2); (3, 3) |];
    ]

let prop_of_string_never_crashes =
  (* Fuzz: arbitrary strings either parse or raise Failure /
     Invalid_argument - never anything else. *)
  QCheck.Test.make ~name:"of_string total on garbage" ~count:300
    QCheck.(string_of_size (Gen.int_range 0 40))
    (fun s ->
      match Synopsis.of_string s with
      | (_ : Synopsis.t) -> true
      | exception Failure _ -> true
      | exception Invalid_argument _ -> true)

(* --- wavelet-domain marginalization --- *)

module Marginal = Wavesyn_synopsis.Marginal
module Md_tree = Wavesyn_haar.Md_tree

let test_marginal_full_synopsis_exact () =
  let rng = Prng.create ~seed:71 in
  let data = Ndarray.init ~dims:[| 8; 8 |] (fun _ -> Prng.float rng 10. -. 5.) in
  let tree = Md_tree.of_data data in
  let syn = Synopsis.Md.of_tree tree (Md_tree.all_coeffs tree) in
  List.iter
    (fun dim ->
      let m = Marginal.sum_out_2d syn ~dim in
      let approx = Synopsis.reconstruct m in
      let exact = Marginal.marginal_exact data ~dim in
      Array.iteri
        (fun i x ->
          check
            (Printf.sprintf "dim %d cell %d" dim i)
            true
            (Float_util.approx_equal ~eps:1e-8 x approx.(i)))
        exact)
    [ 0; 1 ]

let test_marginal_2x2_by_hand () =
  let data = Ndarray.of_flat_array ~dims:[| 2; 2 |] [| 1.; 2.; 3.; 4. |] in
  let tree = Md_tree.of_data data in
  let syn = Synopsis.Md.of_tree tree (Md_tree.all_coeffs tree) in
  (* Sum over rows (dim 0): marginal over columns = [4, 6]. *)
  let m = Synopsis.reconstruct (Marginal.sum_out_2d syn ~dim:0) in
  checkf "col 0" 4. m.(0);
  checkf "col 1" 6. m.(1);
  (* Sum over columns (dim 1): marginal over rows = [3, 7]. *)
  let m = Synopsis.reconstruct (Marginal.sum_out_2d syn ~dim:1) in
  checkf "row 0" 3. m.(0);
  checkf "row 1" 7. m.(1)

let test_marginal_validation () =
  let syn = Synopsis.Md.make ~dims:[| 2; 2 |] [] in
  Alcotest.check_raises "bad dim" (Invalid_argument "Marginal: dim must be 0 or 1")
    (fun () -> ignore (Marginal.sum_out_2d syn ~dim:2))

let prop_marginal_commutes =
  (* marginal (reconstruct synopsis) = reconstruct (marginal synopsis),
     for ANY retained subset - the coefficient-domain roll-up is exact. *)
  QCheck.Test.make ~name:"marginalization commutes with reconstruction" ~count:40
    QCheck.(
      pair
        (array_of_size (Gen.return 16) (float_range (-10.) 10.))
        (pair (int_bound 1) (int_bound 15)))
    (fun (flat, (dim, keep_mask)) ->
      let data = Ndarray.of_flat_array ~dims:[| 4; 4 |] flat in
      let tree = Md_tree.of_data data in
      let all = Md_tree.all_coeffs tree in
      let some = List.filteri (fun i _ -> (keep_mask lsr (i mod 4)) land 1 = 1 || i mod 5 = 0) all in
      let syn = Synopsis.Md.make ~dims:[| 4; 4 |] some in
      let recon = Synopsis.Md.reconstruct syn in
      let lhs = Marginal.marginal_exact recon ~dim in
      let rhs = Synopsis.reconstruct (Marginal.sum_out_2d syn ~dim) in
      Array.for_all2 (fun a b -> Float_util.approx_equal ~eps:1e-7 a b) lhs rhs)

let prop_range_sum_matches_reconstruction =
  QCheck.Test.make ~name:"synopsis range sum = sum of reconstruction" ~count:60
    QCheck.(
      triple
        (array_of_size (Gen.return 16) (float_range (-50.) 50.))
        (int_bound 15) (int_bound 15))
    (fun (data, a, b) ->
      let lo = Stdlib.min a b and hi = Stdlib.max a b in
      let w = Haar1d.decompose data in
      let syn = Synopsis.of_wavelet ~wavelet:w [ 0; 1; 3; 7; 9 ] in
      let approx = Synopsis.reconstruct syn in
      let direct = Range_query.range_sum_exact approx ~lo ~hi in
      let via_syn = Range_query.range_sum syn ~lo ~hi in
      Float_util.approx_equal ~eps:1e-6 direct via_syn)

let prop_md_range_matches_reconstruction =
  QCheck.Test.make ~name:"md synopsis range sum = sum of reconstruction" ~count:40
    QCheck.(array_of_size (Gen.return 16) (float_range (-10.) 10.))
    (fun flat ->
      let data = Ndarray.of_flat_array ~dims:[| 4; 4 |] flat in
      let tree = Wavesyn_haar.Md_tree.of_data data in
      let all = Wavesyn_haar.Md_tree.all_coeffs tree in
      let some = List.filteri (fun i _ -> i mod 2 = 0) all in
      let syn = Synopsis.Md.of_tree tree some in
      let approx = Synopsis.Md.reconstruct syn in
      let ranges = [| (1, 2); (0, 3) |] in
      Float_util.approx_equal ~eps:1e-6
        (Range_query.range_sum_exact_md approx ~ranges)
        (Range_query.range_sum_md syn ~ranges))

(* --- the path-local evaluator: bit-identity with the full fold --- *)

(* The O(B) fold over every retained coefficient in index order that
   the path walk replaced, kept as the range oracle. *)
let fold_range_sum syn ~lo ~hi =
  let n = Synopsis.n syn in
  let overlap a b c d = Stdlib.max 0 (Stdlib.min b d - Stdlib.max a c) in
  List.fold_left
    (fun acc (j, c) ->
      acc
      +.
      if j = 0 then c *. float_of_int (hi - lo + 1)
      else begin
        let a, b = Haar1d.support ~n j in
        let mid = (a + b) / 2 in
        c
        *. float_of_int (overlap lo (hi + 1) a mid - overlap lo (hi + 1) mid b)
      end)
    0. (Synopsis.coeffs syn)

(* The quantile bisection over the oracle; [None] where the estimated
   total is not positive. *)
let fold_quantile syn ~q =
  let n = Synopsis.n syn in
  let cum i = fold_range_sum syn ~lo:0 ~hi:i in
  let total = cum (n - 1) in
  if total <= 0. then None
  else begin
    let target = q *. total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum mid >= target then hi := mid else lo := mid + 1
    done;
    Some !lo
  end

let same_bits what a b =
  if Int64.bits_of_float a <> Int64.bits_of_float b then
    Alcotest.fail (Printf.sprintf "%s: %h <> %h" what a b)

(* Mixed signs and magnitudes from 1e-6 to 1e6, so partial sums cancel
   and round. *)
let mixed rng =
  let m = (Prng.float rng 1. +. 1e-3) *. (10. ** float_of_int (Prng.int rng 13 - 6)) in
  if Prng.bool rng then m else -.m

let test_path_walk_bit_identity () =
  let rng = Prng.create ~seed:2026 in
  let check_synopsis what syn =
    let n = Synopsis.n syn in
    let what = Printf.sprintf "%s (n=%d b=%d)" what n (Synopsis.size syn) in
    let range lo hi =
      same_bits
        (Printf.sprintf "%s range [%d, %d]" what lo hi)
        (fold_range_sum syn ~lo ~hi)
        (Range_query.range_sum syn ~lo ~hi)
    in
    if n <= 128 then
      for lo = 0 to n - 1 do
        for hi = lo to n - 1 do
          range lo hi
        done
      done
    else begin
      range 0 (n - 1);
      for _ = 1 to 2000 do
        let a = Prng.int rng n and b = Prng.int rng n in
        range (Stdlib.min a b) (Stdlib.max a b)
      done
    end;
    for i = 0 to n - 1 do
      same_bits
        (Printf.sprintf "%s point %d" what i)
        (Haar1d.point_from_set ~n (Synopsis.coeffs syn) i)
        (Synopsis.reconstruct_point syn i)
    done;
    List.iter
      (fun q ->
        let got =
          match Quantiles.estimate syn ~q with
          | p -> Some p
          | exception Invalid_argument _ -> None
        in
        if got <> fold_quantile syn ~q then
          Alcotest.fail (Printf.sprintf "%s quantile %g" what q))
      [ 0.; 0.01; 0.25; 0.5; 0.75; 0.99; 1. ]
  in
  List.iter
    (fun n ->
      let all = List.init n (fun j -> (j, mixed rng)) in
      check_synopsis "full mixed" (Synopsis.make ~n all);
      check_synopsis "sparse mixed"
        (Synopsis.make ~n (List.filter (fun _ -> Prng.int rng 8 = 0) all));
      (* Small integers: many sums cancel to an exact zero. *)
      let ints = Array.init n (fun i -> float_of_int (((i * 37) mod 11) - 5)) in
      check_synopsis "full integer"
        (Synopsis.of_wavelet ~wavelet:(Haar1d.decompose ints) (List.init n Fun.id));
      let data = Array.init n (fun _ -> Prng.float rng 8. +. 0.25) in
      let budget = Stdlib.max 1 (n / 8) in
      List.iter
        (fun top ->
          match Ladder.serve ~epsilon:0.25 ~top ~data ~budget Metrics.Abs with
          | Ok served -> check_synopsis "ladder" served.Ladder.synopsis
          | Error e -> Alcotest.fail (Validate.to_string e))
        (if n <= 128 then [ `Greedy; `Minmax ] else [ `Greedy ]))
    (List.init 11 (fun k -> 1 lsl k))

(* The evaluator's error surface: messages the servers put on the
   wire. *)
let test_read_errors () =
  let syn = Synopsis.make ~n:16 [ (0, 2.); (5, -1.) ] in
  let msg f =
    match f () with
    | exception Invalid_argument m -> m
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  Alcotest.(check string)
    "bad bounds" "Range_query: invalid range bounds"
    (msg (fun () -> Range_query.range_sum syn ~lo:3 ~hi:2));
  List.iter
    (fun q ->
      Alcotest.(check string)
        (Printf.sprintf "q = %g" q) "Quantiles: q must be in [0, 1]"
        (msg (fun () -> Quantiles.estimate syn ~q)))
    [ -0.5; 1.5; Float.nan ];
  Alcotest.(check string)
    "non-positive total" "Quantiles: estimated total is not positive"
    (msg (fun () -> Quantiles.estimate (Synopsis.make ~n:8 []) ~q:0.5));
  Alcotest.(check string)
    "point outside" "Synopsis.reconstruct_point: cell out of range"
    (msg (fun () -> Synopsis.reconstruct_point syn 16))

let () =
  Alcotest.run "synopsis"
    [
      ( "synopsis",
        [
          Alcotest.test_case "validation" `Quick test_make_validates;
          Alcotest.test_case "zero coefficients dropped" `Quick test_zero_coeffs_dropped;
          Alcotest.test_case "full reconstruction" `Quick test_full_reconstruction;
          Alcotest.test_case "point = reconstruct" `Quick test_point_matches_reconstruct;
          Alcotest.test_case "empty synopsis" `Quick test_empty_synopsis;
          Alcotest.test_case "serialization roundtrip" `Quick test_serialization_roundtrip;
          Alcotest.test_case "serialization rejects garbage" `Quick test_serialization_rejects_garbage;
          Alcotest.test_case "serialization rejects non-finite" `Quick
            test_serialization_rejects_non_finite;
          QCheck_alcotest.to_alcotest prop_of_string_never_crashes;
          Alcotest.test_case "describe" `Quick test_describe;
          Alcotest.test_case "md roundtrip" `Quick test_md_synopsis_roundtrip;
          Alcotest.test_case "md validation" `Quick test_md_validates;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "denominator" `Quick test_denominator;
          Alcotest.test_case "metric validation" `Quick test_metric_validation;
          Alcotest.test_case "max error" `Quick test_max_error;
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "length mismatch" `Quick test_length_mismatch;
        ] );
      ( "range queries",
        [
          Alcotest.test_case "exact sums" `Quick test_range_sum_exact;
          Alcotest.test_case "full synopsis exact" `Quick test_range_sum_full_synopsis_is_exact;
          Alcotest.test_case "avg and selectivity" `Quick test_range_avg_and_selectivity;
          Alcotest.test_case "bounds checked" `Quick test_range_bounds_checked;
          Alcotest.test_case "server hot-path corners" `Quick
            test_range_server_hot_path_corners;
          Alcotest.test_case "zero total" `Quick test_selectivity_zero_total;
          Alcotest.test_case "md full synopsis" `Quick test_md_range_sum_full_synopsis;
          QCheck_alcotest.to_alcotest prop_range_sum_matches_reconstruction;
          QCheck_alcotest.to_alcotest prop_md_range_matches_reconstruction;
        ] );
      ( "path walk",
        [
          Alcotest.test_case "bit identity with the full fold" `Quick
            test_path_walk_bit_identity;
          Alcotest.test_case "read errors" `Quick test_read_errors;
        ] );
      ( "marginalization",
        [
          Alcotest.test_case "full synopsis exact" `Quick test_marginal_full_synopsis_exact;
          Alcotest.test_case "2x2 by hand" `Quick test_marginal_2x2_by_hand;
          Alcotest.test_case "validation" `Quick test_marginal_validation;
          QCheck_alcotest.to_alcotest prop_marginal_commutes;
        ] );
    ]
