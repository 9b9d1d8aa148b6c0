let log_src = Logs.Src.create "wavesyn.minmax_dp" ~doc:"MinMaxErr DP"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Error_tree = Wavesyn_haar.Error_tree
module Float_util = Wavesyn_util.Float_util
module Pool = Wavesyn_par.Pool
module Synopsis = Wavesyn_synopsis.Synopsis
module Metrics = Wavesyn_synopsis.Metrics

type split_strategy = Binary_search | Linear_scan

type impl = Flat | Reference

type result = { max_err : float; synopsis : Synopsis.t; dp_states : int }

type entry = { value : float; retained : bool; left_allot : int }

(* Minimize max (f b', g (total - b')) for b' in [0, total], where f and
   g (the two children's errors) are each non-increasing in their own
   allotment, so f b' is non-increasing and g (total - b') is
   non-decreasing in b': binary search for the crossover, then compare
   the two adjacent candidates. The linear scan exists for the ablation
   experiment (E12). This is the reference kernel's split search and the
   oracle for the flat kernel's inlined copy. *)
let best_split ~strategy ~total ~f ~g =
  match strategy with
  | Linear_scan ->
      let best_v = ref Float.infinity and best_b = ref 0 in
      for b' = 0 to total do
        let v = Float.max (f b') (g (total - b')) in
        if v < !best_v then begin
          best_v := v;
          best_b := b'
        end
      done;
      (!best_v, !best_b)
  | Binary_search ->
      let lo = ref 0 and hi = ref total in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if f mid <= g (total - mid) then hi := mid else lo := mid + 1
      done;
      let candidates = if !lo > 0 then [ !lo; !lo - 1 ] else [ !lo ] in
      let eval b' = Float.max (f b') (g (total - b')) in
      List.fold_left
        (fun (best_v, best_b) b' ->
          let v = eval b' in
          if v < best_v then (v, b') else (best_v, best_b))
        (Float.infinity, 0) candidates

(* --- the reference kernel: the original tuple-keyed memo Hashtbl ---

   Kept verbatim as the equivalence oracle for the flat kernel
   (test/test_kernels.ml asserts bit-identical results and the same
   fresh-state order). *)
let solve_tree_reference ~split ~cap_budget ~on_state ~tree ~budget metric =
  let n = Error_tree.n tree in
  let coeffs = Error_tree.coeffs tree in
  let data = Error_tree.data tree in
  let memo : (int * int * int, entry) Hashtbl.t = Hashtbl.create 4096 in
  let leaf_error j incoming =
    let d = data.(j - n) in
    Float.abs (d -. incoming) /. Metrics.denominator metric d
  in
  (* Budget beyond the number of coefficients in the subtree cannot be
     used; capping keeps the state space small near the leaves (the
     uncapped variant exists for the ablation experiment E12). *)
  let cap j b =
    if cap_budget then Stdlib.min b (Error_tree.subtree_coeff_count tree j)
    else b
  in
  let rec solve j b mask incoming =
    if j >= n then leaf_error j incoming
    else begin
      let b = cap j b in
      match Hashtbl.find_opt memo (j, b, mask) with
      | Some e -> e.value
      | None ->
          on_state ();
          let c = coeffs.(j) in
          let bit = 1 lsl Error_tree.depth tree j in
          let drop_value, drop_allot =
            if j = 0 then (solve 1 b mask incoming, b)
            else
              best_split ~strategy:split ~total:b
                ~f:(fun b' -> solve (2 * j) b' mask incoming)
                ~g:(fun b'' -> solve ((2 * j) + 1) b'' mask incoming)
          in
          let keep =
            if b = 0 || c = 0. then None
            else if j = 0 then
              Some (solve 1 (b - 1) (mask lor bit) (incoming +. c), b - 1)
            else begin
              let v, b' =
                best_split ~strategy:split ~total:(b - 1)
                  ~f:(fun b' -> solve (2 * j) b' (mask lor bit) (incoming +. c))
                  ~g:(fun b'' ->
                    solve ((2 * j) + 1) b'' (mask lor bit) (incoming -. c))
              in
              Some (v, b')
            end
          in
          let entry =
            match keep with
            | Some (kv, kb) when kv < drop_value ->
                { value = kv; retained = true; left_allot = kb }
            | _ ->
                { value = drop_value; retained = false; left_allot = drop_allot }
          in
          Hashtbl.replace memo (j, b, mask) entry;
          entry.value
    end
  in
  let max_err = solve 0 budget 0 0. in
  (* Retrace the memoized choices to materialize the synopsis. *)
  let rec trace j b mask incoming acc =
    if j >= n then acc
    else begin
      let b = cap j b in
      let e = Hashtbl.find memo (j, b, mask) in
      let c = coeffs.(j) in
      let bit = 1 lsl Error_tree.depth tree j in
      if e.retained then begin
        let acc = j :: acc in
        if j = 0 then trace 1 (b - 1) (mask lor bit) (incoming +. c) acc
        else begin
          let acc =
            trace (2 * j) e.left_allot (mask lor bit) (incoming +. c) acc
          in
          trace
            ((2 * j) + 1)
            (b - 1 - e.left_allot)
            (mask lor bit) (incoming -. c) acc
        end
      end
      else if j = 0 then trace 1 b mask incoming acc
      else begin
        let acc = trace (2 * j) e.left_allot mask incoming acc in
        trace ((2 * j) + 1) (b - e.left_allot) mask incoming acc
      end
    end
  in
  let retained = trace 0 budget 0 0. [] in
  let synopsis =
    Synopsis.make ~n (List.map (fun j -> (j, coeffs.(j))) retained)
  in
  Log.debug (fun m ->
      m "solved n=%d budget=%d states=%d max_err=%g" n budget
        (Hashtbl.length memo) max_err);
  { max_err; synopsis; dp_states = Hashtbl.length memo }

(* --- the flat kernel ---

   Same recurrence, same evaluation order (bit-identical results, the
   same dp_states count, the same [on_state] order), but the memo is
   contiguous storage instead of a tuple-keyed Hashtbl: per (node,
   ancestor-mask) the budget row is a slice [values.(base + b)] /
   [choices.(base + b)], where the packed choice word is
   [(left_allot lsl 1) lor retained] and [-1] marks an unvisited
   state. Two layouts differ only in how a row's [base] is found:

   - dense: when the whole table (sum over nodes of
     [2^depth * row_width]) fits under [dense_limit], both arrays are
     preallocated at that size and [base] is arithmetic on (depth,
     mask, node), level-major so that sibling rows are adjacent;
   - spill: otherwise, rows are bump-allocated on first touch at the
     end of arrays that grow by doubling, and found through an
     open-addressing index keyed by [(mask lsl node_bits) lor j].

   One recursion serves both. A probe returns the *index* of its state
   (computing the state first if it is unvisited) and the caller reads
   [values.(i)], so no float is boxed per probe; the split search is
   inlined rather than passed closures; a child's row base is found
   once per split, not once per probe; and a node's incoming
   reconstruction travels through a per-depth slot array instead of a
   boxed float argument. Nodes whose children are leaves resolve from
   four leaf errors without probing. The per-state allocation is then
   nothing at all (docs/KERNELS.md has the measured profile). *)

let default_dense_limit = 1 lsl 22

module A1 = Bigarray.Array1

(* The tables live outside the OCaml heap. A solve allocates nothing
   per state, so the major GC makes no progress while it runs: heap
   arrays of finished solves lingered for several solves and raised
   the GC's heap target for everything else (docs/KERNELS.md has the
   RSS numbers). Bigarray storage is counted as external memory when
   the runtime paces its collections. *)
type table = {
  mutable values : (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t;
  mutable choices : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t;
  mutable used : int;  (** spill: entries handed out to rows so far *)
}

let make_table size =
  let values = A1.create Bigarray.float64 Bigarray.c_layout size in
  let choices = A1.create Bigarray.int Bigarray.c_layout size in
  A1.fill values Float.nan;
  A1.fill choices (-1);
  { values; choices; used = 0 }

(* Spill layout: packed (node, mask) key -> row base, open addressing
   with linear probing; [-1] marks an empty slot. A stdlib Hashtbl in
   its place allocated about 2 words per state and ran the N=2048
   spill at twice the time per state. *)
type row_index = {
  mutable keys : int array;
  mutable bases : int array;
  mutable rows : int;
}

let rec index_slot keys key h =
  let k = keys.(h) in
  if k = key || k < 0 then h
  else index_slot keys key ((h + 1) land (Array.length keys - 1))

let index_home keys key =
  ((key * 0x2545F4914F6CDD1D) lsr 21) land (Array.length keys - 1)

let index_insert idx key base =
  let s = index_slot idx.keys key (index_home idx.keys key) in
  idx.keys.(s) <- key;
  idx.bases.(s) <- base;
  idx.rows <- idx.rows + 1

let index_grow idx =
  let keys = idx.keys and bases = idx.bases in
  let size = 2 * Array.length keys in
  idx.keys <- Array.make size (-1);
  idx.bases <- Array.make size 0;
  idx.rows <- 0;
  Array.iteri (fun s k -> if k >= 0 then index_insert idx k bases.(s)) keys

let table_reserve t need =
  let size = ref (A1.dim t.values) in
  while !size < need do
    size := 2 * !size
  done;
  if !size > A1.dim t.values then begin
    let bigger = make_table !size in
    A1.blit (A1.sub t.values 0 t.used) (A1.sub bigger.values 0 t.used);
    A1.blit (A1.sub t.choices 0 t.used) (A1.sub bigger.choices 0 t.used);
    t.values <- bigger.values;
    t.choices <- bigger.choices
  end

(* The row base of a spilled (node, mask) row, allocating the row on
   first touch. *)
let spill_row_base t idx ~width key =
  let s = index_slot idx.keys key (index_home idx.keys key) in
  if idx.keys.(s) = key then idx.bases.(s)
  else begin
    let base = t.used in
    table_reserve t (base + width);
    t.used <- base + width;
    index_insert idx key base;
    if 2 * idx.rows > Array.length idx.keys then index_grow idx;
    base
  end

let[@inline] store t i value packed =
  t.values.{i} <- value;
  t.choices.{i} <- packed

(* [best_split] over two leaf children: their errors [f], [g] do not
   depend on the allotment, so every candidate has the value
   [Float.max f g]; the binary search stops at 0 or [total] and the
   linear scan keeps its first candidate. *)
let[@inline] leaf_split_value f g =
  let v = Float.max f g in
  if v < Float.infinity then v else Float.infinity

let[@inline] leaf_split_allot split ~total f g =
  if Float.max f g < Float.infinity then
    match split with
    | Binary_search -> if f <= g then 0 else total
    | Linear_scan -> 0
  else 0

let solve_tree_flat ~split ~cap_budget ~on_state ~dense_limit ~tree ~budget
    metric =
  let n = Error_tree.n tree in
  let coeffs = Error_tree.coeffs tree in
  let data = Error_tree.data tree in
  let denoms = Array.map (Metrics.denominator metric) data in
  let states = ref 0 in
  (* Row width per node: the budget coordinate is capped at the
     subtree's coefficient count (default) or runs to the full budget
     (uncapped ablation). Either way [Int.min b (widths.(j) - 1)] is
     the state's budget coordinate. *)
  let widths =
    Array.init n (fun j ->
        (if cap_budget then
           Stdlib.min budget (Error_tree.subtree_coeff_count tree j)
         else budget)
        + 1)
  in
  let depths = Array.init n (fun j -> Error_tree.depth tree j) in
  let node_bits =
    let b = ref 1 in
    while 1 lsl !b < n do incr b done;
    !b
  in
  (* Predicted dense size; [-1] when it overflows the limit and rows
     must be allocated lazily instead. *)
  let dense_total =
    let t = ref 0 in
    (try
       for j = 0 to n - 1 do
         t := !t + ((1 lsl depths.(j)) * widths.(j));
         if !t > dense_limit then raise Exit
       done
     with Exit -> t := -1);
    !t
  in
  let dense = dense_total >= 0 in
  (* Dense layout, level-major: depth [d] holds its [2^d] masks times
     its nodes' rows, ordered by (mask, node) so that the two children
     a split search probes have adjacent rows. [level_off.(d)] is where
     depth [d] starts; every node at one depth has the same width. *)
  let level_off = Array.make (node_bits + 2) 0 in
  if dense then begin
    for j = 0 to n - 1 do
      let d = depths.(j) in
      level_off.(d + 1) <- level_off.(d + 1) + ((1 lsl d) * widths.(j))
    done;
    for d = 1 to node_bits + 1 do
      level_off.(d) <- level_off.(d) + level_off.(d - 1)
    done
  end;
  let t = make_table (if dense then Stdlib.max 1 dense_total else 1 lsl 12) in
  let idx =
    let size = if dense then 1 else 1 lsl 10 in
    { keys = Array.make size (-1); bases = Array.make size 0; rows = 0 }
  in
  let row_base j mask =
    if dense then
      if j = 0 then 0
      else
        (* nodes at depth d >= 1 are [h, 2h) with h = 2^(d-1) *)
        let d = depths.(j) in
        let h = 1 lsl (d - 1) in
        level_off.(d) + (((mask * h) + j - h) * widths.(j))
    else spill_row_base t idx ~width:widths.(j) ((mask lsl node_bits) lor j)
  in
  (* [incs.(2 * d + side)] is the incoming reconstruction of the child
     on [side] (0 left, 1 right = [j land 1]) at depth [d]. Only one
     state per depth is being filled at a time — its parent, one level
     up, wrote the slot just before probing — so a state reads its own
     slot once on entry. *)
  let incs = Array.make (2 * (node_bits + 2)) 0. in
  let rec probe j base b mask =
    let i = base + b in
    if t.choices.{i} < 0 then fill j b mask i;
    i
  and fill j b mask i =
    on_state ();
    incr states;
    let d = depths.(j) in
    let incoming = incs.((2 * d) + (j land 1)) in
    let c = coeffs.(j) in
    let keep = b > 0 && c <> 0. in
    if j = 0 then begin
      (* The root's single child is node 1; the budget passes through
         whole. *)
      if n = 1 then begin
        let drop_v = Float.abs (data.(0) -. incoming) /. denoms.(0) in
        let keep_v = Float.abs (data.(0) -. (incoming +. c)) /. denoms.(0) in
        if keep && keep_v < drop_v then store t i keep_v (((b - 1) lsl 1) lor 1)
        else store t i drop_v (b lsl 1)
      end
      else begin
        let w1 = widths.(1) - 1 in
        incs.(3) <- incoming;
        let base = row_base 1 mask in
        let k = probe 1 base (Int.min b w1) mask in
        let drop_v = t.values.{k} in
        if keep then begin
          incs.(3) <- incoming +. c;
          let mask = mask lor 1 in
          let base = row_base 1 mask in
          let k = probe 1 base (Int.min (b - 1) w1) mask in
          let keep_v = t.values.{k} in
          if keep_v < drop_v then store t i keep_v (((b - 1) lsl 1) lor 1)
          else store t i drop_v (b lsl 1)
        end
        else store t i drop_v (b lsl 1)
      end
    end
    else if 2 * j >= n then begin
      (* Leaf-level node: both children are data cells. *)
      let l = (2 * j) - n in
      let dl = data.(l) and dr = data.(l + 1) in
      let el = Float.abs (dl -. incoming) /. denoms.(l) in
      let er = Float.abs (dr -. incoming) /. denoms.(l + 1) in
      let drop_v = leaf_split_value el er in
      let drop_a = leaf_split_allot split ~total:b el er in
      if keep then begin
        let el = Float.abs (dl -. (incoming +. c)) /. denoms.(l) in
        let er = Float.abs (dr -. (incoming -. c)) /. denoms.(l + 1) in
        let keep_v = leaf_split_value el er in
        if keep_v < drop_v then
          store t i keep_v
            ((leaf_split_allot split ~total:(b - 1) el er lsl 1) lor 1)
        else store t i drop_v (drop_a lsl 1)
      end
      else store t i drop_v (drop_a lsl 1)
    end
    else begin
      let l = 2 * j in
      let w1 = widths.(l) - 1 in
      let slot = 2 * (d + 1) in
      incs.(slot) <- incoming;
      incs.(slot + 1) <- incoming;
      let bl = row_base l mask and br = row_base (l + 1) mask in
      let a = split_search l bl br w1 b mask in
      let drop_v =
        if a < 0 then Float.infinity
        else
          Float.max
            t.values.{bl + Int.min a w1}
            t.values.{br + Int.min (b - a) w1}
      in
      let drop_a = Int.max a 0 in
      if keep then begin
        incs.(slot) <- incoming +. c;
        incs.(slot + 1) <- incoming -. c;
        let mask = mask lor (1 lsl d) in
        let bl = row_base l mask and br = row_base (l + 1) mask in
        let a = split_search l bl br w1 (b - 1) mask in
        let keep_v =
          if a < 0 then Float.infinity
          else
            Float.max
              t.values.{bl + Int.min a w1}
              t.values.{br + Int.min (b - 1 - a) w1}
        in
        if keep_v < drop_v then store t i keep_v ((Int.max a 0 lsl 1) lor 1)
        else store t i drop_v (drop_a lsl 1)
      end
      else store t i drop_v (drop_a lsl 1)
    end
  (* [best_split] over internal children [l] and [l + 1] whose rows
     (for [mask]) start at [bl] and [br], both of width [w1 + 1]:
     the best allotment to [l], or [-1] when no candidate is below
     infinity (best_split's [(infinity, 0)]). Probes run in
     best_split's order — right child, then left, per comparison. *)
  and split_search l bl br w1 total mask =
    let r = l + 1 in
    match split with
    | Linear_scan ->
        let best_v = ref Float.infinity and best = ref (-1) in
        for b' = 0 to total do
          let ir = probe r br (Int.min (total - b') w1) mask in
          let il = probe l bl (Int.min b' w1) mask in
          let v = Float.max t.values.{il} t.values.{ir} in
          if v < !best_v then begin
            best_v := v;
            best := b'
          end
        done;
        !best
    | Binary_search ->
        let lo = ref 0 and hi = ref total in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          let ir = probe r br (Int.min (total - mid) w1) mask in
          let il = probe l bl (Int.min mid w1) mask in
          if t.values.{il} <= t.values.{ir} then hi := mid else lo := mid + 1
        done;
        let lo = !lo in
        let ir = probe r br (Int.min (total - lo) w1) mask in
        let il = probe l bl (Int.min lo w1) mask in
        let v = Float.max t.values.{il} t.values.{ir} in
        let best_v = if v < Float.infinity then v else Float.infinity in
        let best = if v < Float.infinity then lo else -1 in
        if lo > 0 then begin
          let ir = probe r br (Int.min (total - lo + 1) w1) mask in
          let il = probe l bl (Int.min (lo - 1) w1) mask in
          if Float.max t.values.{il} t.values.{ir} < best_v then lo - 1
          else best
        end
        else best
  in
  let root = probe 0 (row_base 0 0) (Int.min budget (widths.(0) - 1)) 0 in
  let max_err = t.values.{root} in
  (* Retrace the stored choices to materialize the synopsis. *)
  let rec trace j b mask acc =
    if j >= n then acc
    else begin
      let b = Int.min b (widths.(j) - 1) in
      let packed = t.choices.{row_base j mask + b} in
      let left_allot = packed lsr 1 in
      if packed land 1 = 1 then begin
        let acc = j :: acc in
        let mask = mask lor (1 lsl depths.(j)) in
        if j = 0 then trace 1 (b - 1) mask acc
        else
          let acc = trace (2 * j) left_allot mask acc in
          trace ((2 * j) + 1) (b - 1 - left_allot) mask acc
      end
      else if j = 0 then trace 1 b mask acc
      else
        let acc = trace (2 * j) left_allot mask acc in
        trace ((2 * j) + 1) (b - left_allot) mask acc
    end
  in
  let retained = trace 0 budget 0 [] in
  let synopsis =
    Synopsis.make ~n (List.map (fun j -> (j, coeffs.(j))) retained)
  in
  Log.debug (fun m ->
      m "solved n=%d budget=%d states=%d max_err=%g (flat %s)" n budget !states
        max_err
        (if dense then "dense" else "spill"));
  { max_err; synopsis; dp_states = !states }

let solve_tree ?(split = Binary_search) ?(cap_budget = true)
    ?(on_state = fun () -> ()) ?(impl = Flat)
    ?(dense_limit = default_dense_limit) ~tree ~budget metric =
  if budget < 0 then invalid_arg "Minmax_dp.solve: negative budget";
  match impl with
  | Reference -> solve_tree_reference ~split ~cap_budget ~on_state ~tree ~budget metric
  | Flat ->
      solve_tree_flat ~split ~cap_budget ~on_state ~dense_limit ~tree ~budget
        metric

type budget_search = { best : result; feasible : bool }

let budget_for ?pool ?on_state ?impl ~data ~target metric =
  if not (Float_util.is_pow2 (Array.length data)) then
    invalid_arg "Minmax_dp.budget_for: data length must be a power of two";
  let tree = Error_tree.of_data data in
  let nonzero =
    Array.fold_left
      (fun acc c -> if c <> 0. then acc + 1 else acc)
      0 (Error_tree.coeffs tree)
  in
  (* Every probe is cached, so no budget is ever solved twice — in
     particular the final answer reuses the last probe instead of
     re-solving at [hi]. *)
  let cache : (int, result) Hashtbl.t = Hashtbl.create 16 in
  let solve_fresh b = solve_tree ?on_state ?impl ~tree ~budget:b metric in
  let solve_b b =
    match Hashtbl.find_opt cache b with
    | Some r -> r
    | None ->
        let r = solve_fresh b in
        Hashtbl.replace cache b r;
        r
  in
  (* Optimal error is non-increasing in the budget: binary search for
     the smallest feasible budget. With a pool, each round probes up to
     [domains] evenly spaced budgets speculatively (the round's
     narrowing depends only on the probes' deterministic outcomes, so
     the search converges to the same minimal budget for every pool
     size; one probe per round degrades to the classic bisection). *)
  let speculate = match pool with Some p -> Pool.domains p | None -> 1 in
  let lo = ref 0 and hi = ref nonzero in
  if (solve_b 0).max_err <= target then hi := 0
  else begin
    while !lo + 1 < !hi do
      let span = !hi - !lo in
      let count = Stdlib.min speculate (span - 1) in
      let probes =
        List.init count (fun j -> !lo + (span * (j + 1) / (count + 1)))
        |> List.sort_uniq compare
      in
      let fresh =
        Array.of_list
          (List.filter (fun b -> not (Hashtbl.mem cache b)) probes)
      in
      (match pool with
      | Some p when Array.length fresh > 1 ->
          let rs =
            Pool.map_chunked p (Array.length fresh) (fun i ->
                solve_fresh fresh.(i))
          in
          Array.iteri (fun i r -> Hashtbl.replace cache fresh.(i) r) rs
      | _ -> Array.iter (fun b -> ignore (solve_b b)) fresh);
      List.iter
        (fun b ->
          if (solve_b b).max_err <= target then hi := Stdlib.min !hi b
          else lo := Stdlib.max !lo b)
        probes
    done
  end;
  let best = solve_b !hi in
  { best; feasible = best.max_err <= target }

let solve ?split ?cap_budget ?on_state ?impl ?dense_limit ~data ~budget metric =
  if not (Float_util.is_pow2 (Array.length data)) then
    invalid_arg "Minmax_dp.solve: data length must be a power of two";
  solve_tree ?split ?cap_budget ?on_state ?impl ?dense_limit
    ~tree:(Error_tree.of_data data) ~budget metric
