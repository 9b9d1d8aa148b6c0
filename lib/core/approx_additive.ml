module Md_tree = Wavesyn_haar.Md_tree
module Ndarray = Wavesyn_util.Ndarray
module Synopsis = Wavesyn_synopsis.Synopsis
module Metrics = Wavesyn_synopsis.Metrics

type result = {
  bound : float;
  synopsis : Synopsis.Md.md;
  measured : float;
  dp_states : int;
}

let path_bound tree =
  (* Maximum number of levels contributing coefficients on any
     root-to-leaf path, times the coefficients per node. *)
  let d = Md_tree.ndim tree in
  let levels = Md_tree.levels tree in
  float_of_int (((1 lsl d) - 1) * levels + 1)

let guarantee_bound ~tree ~epsilon metric =
  let r = Md_tree.max_abs_coeff tree in
  let raw = epsilon *. r *. 2. *. path_bound tree in
  match metric with
  | Metrics.Abs -> raw
  | Metrics.Rel { sanity } -> raw /. sanity

let theorem_epsilon ~tree eps =
  let d = Md_tree.ndim tree in
  let total = float_of_int (Ndarray.size (Md_tree.data tree)) in
  let logn = Float.max 1. (Float.log total /. Float.log 2.) in
  eps /. (float_of_int (1 lsl d) *. logn)

let solve_tree ?on_state ?impl ~tree ~budget ~epsilon metric =
  if epsilon <= 0. || epsilon > 1. then
    invalid_arg "Approx_additive: epsilon must be in (0, 1]";
  let data = Md_tree.data tree in
  let dims = Ndarray.dims data in
  let r = Md_tree.max_abs_coeff tree in
  let empty_result () =
    let synopsis = Synopsis.Md.make ~dims [] in
    {
      bound = 0.;
      synopsis;
      measured = Metrics.of_md_synopsis metric ~data synopsis;
      dp_states = 0;
    }
  in
  if r = 0. then empty_result ()
  else begin
    let span = path_bound tree in
    let vmax = 2. *. r *. span in
    let vmin = epsilon *. r /. (span *. 8.) in
    let wavelet = Md_tree.wavelet tree in
    let cfg =
      {
        Md_dp.coeff_value = (fun pos -> Ndarray.get_flat wavelet pos);
        rounding = Md_dp.Breakpoints { epsilon; vmin; vmax };
        forced = (fun _ -> false);
        leaf_denominator =
          (fun cell -> Metrics.denominator metric (Ndarray.get data cell));
      }
    in
    match Md_dp.run ?on_state ?impl ~tree ~budget cfg with
    | None -> assert false (* nothing is forced, so always feasible *)
    | Some { Md_dp.value; retained; dp_states } ->
        let coeffs =
          List.map (fun pos -> (pos, Ndarray.get_flat wavelet pos)) retained
        in
        let synopsis = Synopsis.Md.make ~dims coeffs in
        let measured = Metrics.of_md_synopsis metric ~data synopsis in
        { bound = value; synopsis; measured; dp_states }
  end

let solve ?on_state ?impl ~data ~budget ~epsilon metric =
  solve_tree ?on_state ?impl ~tree:(Md_tree.of_data data) ~budget ~epsilon
    metric

let solve_1d ?on_state ?impl ~data ~budget ~epsilon metric =
  let nd = Ndarray.of_flat_array ~dims:[| Array.length data |] data in
  let r = solve ?on_state ?impl ~data:nd ~budget ~epsilon metric in
  (* D = 1 flat wavelet positions coincide with Haar1d indices. *)
  let syn =
    Synopsis.make ~n:(Array.length data) (Synopsis.Md.coeffs r.synopsis)
  in
  (r.measured, syn)
