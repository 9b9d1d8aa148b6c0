module Md_tree = Wavesyn_haar.Md_tree
module Ndarray = Wavesyn_util.Ndarray
module Synopsis = Wavesyn_synopsis.Synopsis
module Metrics = Wavesyn_synopsis.Metrics
module Pool = Wavesyn_par.Pool

type result = {
  max_err : float;
  synopsis : Synopsis.Md.md;
  tau : float;
  dp_states : int;
  sweeps : int;
}

let theorem_epsilon eps = eps /. 4.

(* The DP keys truncated errors with [int_of_float], whose behaviour is
   unspecified beyond the native int range. Coefficients scale to
   [c / K_tau], so a τ whose scaled magnitude can reach 2^62 would
   produce garbage keys (and, for denormal K_tau, infinite or NaN
   values); such τ candidates are skipped instead of run. *)
let key_guard = Float.ldexp 1. 62

(* τ sweep: powers of two covering [smallest non-zero |c|, R]. The
   proof only needs some τ' in [C, 2C) for C the largest coefficient
   dropped by the optimum, and C is one of the |c| values. *)
let tau_candidates ~wavelet =
  let r = Ndarray.max_abs wavelet in
  if r = 0. then []
  else begin
    let cmin = ref r in
    for i = 0 to Ndarray.size wavelet - 1 do
      let a = Float.abs (Ndarray.get_flat wavelet i) in
      if a > 0. && a < !cmin then cmin := a
    done;
    let kmin = int_of_float (Float.floor (Float.log !cmin /. Float.log 2.)) in
    let kmax = int_of_float (Float.ceil (Float.log r /. Float.log 2.)) in
    let kmin = Stdlib.max kmin (kmax - 60) in
    List.init (kmax - kmin + 1) (fun i -> Float.pow 2. (float_of_int (kmin + i)))
  end

let solve_tree ?pool ?impl ~tree ~budget ~epsilon () =
  if epsilon <= 0. || epsilon > 1. then
    invalid_arg "Approx_abs: epsilon must be in (0, 1]";
  let data = Md_tree.data tree in
  let dims = Ndarray.dims data in
  let wavelet = Md_tree.wavelet tree in
  let r = Ndarray.max_abs wavelet in
  let d = Md_tree.ndim tree in
  let total = Ndarray.size data in
  let logn = Float.max 1. (Float.log (float_of_int total) /. Float.log 2.) in
  (* Everything τ-independent is hoisted out of the sweep: the wavelet
     values and their magnitudes (read per DP probe by every candidate)
     and the DP skeleton of the shared tree (see Md_dp.skeleton). All
     are immutable after this point, so pooled candidates share them. *)
  let ncoeffs = Ndarray.size wavelet in
  let vals = Array.init ncoeffs (Ndarray.get_flat wavelet) in
  let mags = Array.map Float.abs vals in
  let sk =
    match impl with
    | Some Md_dp.Reference -> None
    | _ -> Some (Md_dp.skeleton ~tree)
  in
  let evaluate coeffs =
    let synopsis = Synopsis.Md.make ~dims coeffs in
    (Metrics.of_md_synopsis Metrics.Abs ~data synopsis, synopsis)
  in
  (* One τ candidate: run the truncated DP and measure the candidate
     synopsis with its true error. Pure (only reads the shared tree),
     so candidates can run on any domain. *)
  let run_tau tau =
    let forced_count = ref 0 in
    for i = 0 to ncoeffs - 1 do
      if mags.(i) > tau then incr forced_count
    done;
    let k_tau = epsilon *. tau /. (float_of_int (1 lsl d) *. logn) in
    let max_scaled = r /. k_tau in
    if !forced_count > budget then None
    else if (not (Float.is_finite max_scaled)) || max_scaled >= key_guard then
      None
    else begin
      let cfg =
        {
          Md_dp.coeff_value = (fun pos -> Float.floor (vals.(pos) /. k_tau));
          rounding = Md_dp.Exact;
          forced = (fun pos -> mags.(pos) > tau);
          leaf_denominator = (fun _ -> 1.);
        }
      in
      match Md_dp.run ?impl ?skeleton:sk ~tree ~budget cfg with
      | None -> None
      | Some { Md_dp.retained; dp_states; _ } ->
          let coeffs = List.map (fun pos -> (pos, vals.(pos))) retained in
          let err, syn = evaluate coeffs in
          Some (err, syn, tau, dp_states)
    end
  in
  let candidates = Array.of_list (tau_candidates ~wavelet) in
  let outcomes =
    match pool with
    | Some p when Array.length candidates > 1 ->
        let items = Array.length candidates in
        let grain = Pool.default_grain ~items ~domains:(Pool.domains p) in
        Pool.map_chunked ~grain p items (fun i -> run_tau candidates.(i))
    | _ -> Array.map run_tau candidates
  in
  (* Merge in ascending-τ order with a strict '<': the first-best
     tie-break is exactly the sequential sweep's, whatever the pool
     size. The empty synopsis is always feasible and seeds the fold. *)
  let best_err, best_syn = evaluate [] in
  let best = ref (best_err, best_syn, Float.infinity) in
  let states = ref 0 and sweeps = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some (err, syn, tau, dp_states) ->
          incr sweeps;
          states := !states + dp_states;
          let cur_err, _, _ = !best in
          if err < cur_err then best := (err, syn, tau))
    outcomes;
  let max_err, synopsis, tau = !best in
  { max_err; synopsis; tau; dp_states = !states; sweeps = !sweeps }

let solve ?pool ?impl ~data ~budget ~epsilon () =
  solve_tree ?pool ?impl ~tree:(Md_tree.of_data data) ~budget ~epsilon ()

let solve_1d ?pool ?impl ~data ~budget ~epsilon () =
  let n = Array.length data in
  let nd = Ndarray.of_flat_array ~dims:[| n |] data in
  let r = solve ?pool ?impl ~data:nd ~budget ~epsilon () in
  (r.max_err, Synopsis.make ~n (Synopsis.Md.coeffs r.synopsis))
