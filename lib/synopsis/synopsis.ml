module Haar1d = Wavesyn_haar.Haar1d
module Haar_md = Wavesyn_haar.Haar_md
module Md_tree = Wavesyn_haar.Md_tree
module Ndarray = Wavesyn_util.Ndarray
module Float_util = Wavesyn_util.Float_util

(* [dense] is the coefficient index: [dense.(j)] is the value of
   coefficient [j], or [0.] where it is not retained. *)
type t = { n : int; coeffs : (int * float) list; dense : float array }

let make ~n coeffs =
  if not (Float_util.is_pow2 n) then
    invalid_arg "Synopsis.make: domain size must be a power of two";
  let coeffs = List.filter (fun (_, c) -> c <> 0.) coeffs in
  List.iter
    (fun (i, _) ->
      if i < 0 || i >= n then
        invalid_arg "Synopsis.make: coefficient index out of range")
    coeffs;
  let sorted = List.sort (fun (i, _) (j, _) -> compare i j) coeffs in
  let rec check_dups = function
    | (i, _) :: ((j, _) :: _ as rest) ->
        if i = j then invalid_arg "Synopsis.make: duplicate coefficient index";
        check_dups rest
    | _ -> ()
  in
  check_dups sorted;
  let dense = Array.make n 0. in
  List.iter (fun (i, c) -> dense.(i) <- c) sorted;
  { n; coeffs = sorted; dense }

let of_wavelet ~wavelet indices =
  let n = Array.length wavelet in
  make ~n (List.map (fun i -> (i, wavelet.(i))) indices)

let n t = t.n
let size t = List.length t.coeffs
let coeffs t = t.coeffs
let mem t i = i >= 0 && i < t.n && t.dense.(i) <> 0.

let imin (a : int) b = if a < b then a else b
let imax (a : int) b = if a > b then a else b

(* [left - right] for the detail coefficient with support
   [a, a + width): the overlaps of [lo, hi1) with the support's
   positive and negative halves. *)
let signed_overlap ~lo ~hi1 ~a ~width =
  let mid = a + (width lsr 1) and b = a + width in
  imax 0 (imin hi1 mid - imax lo a) - imax 0 (imin hi1 b - imax lo mid)

(* A detail coefficient whose support contains neither [lo] nor [hi]
   either misses [lo, hi] or lies inside it, and adds an exact zero.
   So the walk visits [c_0] and, level by level, the ancestors of [lo]
   and [hi] — ascending index order, the order of the full fold. *)
let path_sum t ~lo ~hi =
  let w = t.dense and hi1 = hi + 1 in
  let acc = ref (0. +. (w.(0) *. float_of_int (hi1 - lo))) in
  let base = ref 1 and width = ref t.n in
  while !width > 1 do
    let wd = !width in
    let kl = lo / wd and kh = hi / wd in
    acc :=
      !acc
      +. w.(!base + kl)
         *. float_of_int (signed_overlap ~lo ~hi1 ~a:(kl * wd) ~width:wd);
    if kh <> kl then
      acc :=
        !acc
        +. w.(!base + kh)
           *. float_of_int (signed_overlap ~lo ~hi1 ~a:(kh * wd) ~width:wd);
    base := !base * 2;
    width := wd / 2
  done;
  !acc

let reconstruct_point t i =
  if i < 0 || i >= t.n then
    invalid_arg "Synopsis.reconstruct_point: cell out of range";
  path_sum t ~lo:i ~hi:i

let reconstruct t = Haar1d.reconstruct t.dense

let level_histogram t =
  (* Levels run 0 .. log2 n - 1 (c_0 and c_1 share level 0); a
     singleton domain has the single level 0. *)
  let hist = Array.make (Stdlib.max 1 (Float_util.log2i t.n)) 0 in
  List.iter
    (fun (i, _) ->
      let l = Haar1d.level_of ~n:t.n i in
      hist.(l) <- hist.(l) + 1)
    t.coeffs;
  hist

let describe t =
  "{"
  ^ String.concat "; "
      (List.map (fun (i, c) -> Printf.sprintf "c%d=%g" i c) t.coeffs)
  ^ "}"

let to_string t =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (string_of_int t.n);
  List.iter
    (fun (i, c) -> Buffer.add_string buf (Printf.sprintf " %d:%h" i c))
    t.coeffs;
  Buffer.contents buf

let of_string ?n:expected s =
  match String.split_on_char ' ' (String.trim s) with
  | [] -> failwith "Synopsis.of_string: empty input"
  | n_str :: rest -> (
      let n =
        match int_of_string_opt n_str with
        | Some n -> n
        | None -> failwith "Synopsis.of_string: bad domain size"
      in
      (match expected with
      | Some e when e <> n ->
          failwith
            (Printf.sprintf
               "Synopsis.of_string: domain size %d does not match the \
                expected %d"
               n e)
      | _ -> ());
      let bad () = failwith "Synopsis.of_string: bad coefficient" in
      let parse_pair p =
        match String.split_on_char ':' p with
        | [ i; c ] -> (
            match (int_of_string_opt i, float_of_string_opt c) with
            | Some i, Some c when Float.is_finite c -> (i, c)
            | _ -> bad ())
        | _ -> bad ()
      in
      try make ~n (List.map parse_pair rest)
      with Invalid_argument reason -> failwith reason)

module Md = struct
  type md = { dims : int array; coeffs : (int * float) list; total : int }

  let make ~dims coeffs =
    let probe = Ndarray.create ~dims 0. in
    ignore (Haar_md.side probe);
    let total = Ndarray.size probe in
    let coeffs = List.filter (fun (_, c) -> c <> 0.) coeffs in
    List.iter
      (fun (i, _) ->
        if i < 0 || i >= total then
          invalid_arg "Synopsis.Md.make: coefficient position out of range")
      coeffs;
    let sorted = List.sort (fun (i, _) (j, _) -> compare i j) coeffs in
    let rec check_dups = function
      | (i, _) :: ((j, _) :: _ as rest) ->
          if i = j then
            invalid_arg "Synopsis.Md.make: duplicate coefficient position";
          check_dups rest
      | _ -> ()
    in
    check_dups sorted;
    { dims = Array.copy dims; coeffs = sorted; total }

  let of_tree tree coeffs =
    make ~dims:(Ndarray.dims (Md_tree.data tree)) coeffs

  let dims t = Array.copy t.dims
  let size t = List.length t.coeffs
  let coeffs t = t.coeffs

  let sparse_wavelet t =
    let w = Ndarray.create ~dims:t.dims 0. in
    List.iter (fun (i, c) -> Ndarray.set_flat w i c) t.coeffs;
    w

  let reconstruct_cell t cell =
    let w = Ndarray.create ~dims:t.dims 0. in
    List.fold_left
      (fun acc (flat, c) ->
        let coeff = Ndarray.index_of_flat w flat in
        acc +. (float_of_int (Haar_md.sign_at w ~coeff ~cell) *. c))
      0. t.coeffs

  let reconstruct t = Haar_md.reconstruct (sparse_wavelet t)
end
