let log_src = Logs.Src.create "wavesyn.md_dp" ~doc:"Approximate multi-d DP engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Md_tree = Wavesyn_haar.Md_tree
module Bits = Wavesyn_util.Bits

type rounding =
  | Exact
  | Breakpoints of { epsilon : float; vmin : float; vmax : float }

type config = {
  coeff_value : int -> float;
  rounding : rounding;
  forced : int -> bool;
  leaf_denominator : int array -> float;
}

type outcome = { value : float; retained : int list; dp_states : int }

type impl = Flat | Reference

(* --- rounding of incoming errors ---

   Breakpoints {0} ∪ {±(1+ε)^k, kmin <= k <= kmax}. Positive values
   round their magnitude down, negative values round it up, exactly as
   in the paper's round_ε. *)
type grid = { log_base : float; kmin : int; kmax : int; vmin : float }

let grid ~epsilon ~vmin ~vmax =
  let log_base = Float.log (1. +. epsilon) in
  let kmin = int_of_float (Float.floor (Float.log vmin /. log_base)) in
  let kmax = int_of_float (Float.ceil (Float.log vmax /. log_base)) + 1 in
  { log_base; kmin; kmax; vmin }

let breakpoint g k = Float.exp (float_of_int k *. g.log_base)
let exponent g v = Float.log (Float.abs v) /. g.log_base
let[@inline] clamp g k = Int.max g.kmin (Int.min g.kmax k)

let round_to g v =
  if Float.abs v < g.vmin then 0.
  else begin
    let l = exponent g v in
    if v > 0. then breakpoint g (clamp g (int_of_float (Float.floor (l +. 1e-12))))
    else -.breakpoint g (clamp g (int_of_float (Float.ceil (l -. 1e-12))))
  end

let key_of g v =
  if v = 0. then 0
  else begin
    let k = clamp g (int_of_float (Float.round (exponent g v))) in
    let shifted = k - g.kmin + 1 in
    if v > 0. then 2 * shifted else (2 * shifted) + 1
  end

(* The rounding as closures, for the reference kernel. *)
let round_error = function
  | Exact -> Fun.id
  | Breakpoints { epsilon; vmin; vmax } -> round_to (grid ~epsilon ~vmin ~vmax)

let key_of_error = function
  | Exact -> int_of_float
  | Breakpoints { epsilon; vmin; vmax } -> key_of (grid ~epsilon ~vmin ~vmax)

type entry = { value : float; subset : int list; allocs : int array }

(* Static description of one error-tree node, cached by node id. *)
type node_info = {
  node : Md_tree.node;
  cap : int;  (* coefficients available in the whole subtree *)
  positions : int array;  (* flat positions of DP-relevant coefficients *)
  values : float array;  (* their DP-unit values *)
  forced_mask : int;
  kids : Md_tree.node array;  (* empty when children are data cells *)
  cells : int array array;  (* data-cell children, when kids is empty *)
  signs : int array array;  (* signs.(child).(k) for coefficient k *)
  kid_caps : int array;
}

let pow_int b e =
  let rec go acc e = if e = 0 then acc else go (acc * b) (e - 1) in
  go 1 e

(* Dense node ids: Root = 0, then level-l cubes in row-major order.
   [base.(l)] is the first id of the level-l cubes, so [base.(levels)]
   is the total node count. *)
let make_base ~d ~levels =
  let base = Array.make (levels + 1) 1 in
  for l = 1 to levels do
    base.(l) <- base.(l - 1) + (1 lsl (d * (l - 1)))
  done;
  base

let node_id base = function
  | Md_tree.Root -> 0
  | Md_tree.Cube { level; q } ->
      let lin = Array.fold_left (fun acc x -> (acc lsl level) + x) 0 q in
      base.(level) + lin

let subtree_cap tree ~total_cells = function
  | Md_tree.Root -> total_cells
  | Md_tree.Cube { level; _ } ->
      pow_int (Md_tree.side tree / (1 lsl level)) (Md_tree.ndim tree) - 1

(* --- the reference kernel: the original tuple-keyed memo Hashtbl ---

   Kept verbatim as the equivalence oracle for the flat kernel
   (test/test_kernels.ml asserts bit-identical outcomes). *)
let run_reference ~on_state ~tree ~budget cfg =
  let round_error = round_error cfg.rounding in
  let key_of_error = key_of_error cfg.rounding in
  let d = Md_tree.ndim tree in
  let levels = Md_tree.levels tree in
  let total_cells = pow_int (Md_tree.side tree) d in
  let base = make_base ~d ~levels in
  let node_id = node_id base in
  let subtree_cap = subtree_cap tree ~total_cells in
  let info_table : (int, node_info) Hashtbl.t = Hashtbl.create 64 in
  let info_of node =
    let id = node_id node in
    match Hashtbl.find_opt info_table id with
    | Some info -> info
    | None ->
        let raw = Md_tree.node_coeffs tree node in
        let relevant =
          Array.to_list raw
          |> List.filter_map (fun (pos, _) ->
                 let v = cfg.coeff_value pos in
                 if v <> 0. || cfg.forced pos then Some (pos, v) else None)
        in
        let positions = Array.of_list (List.map fst relevant) in
        let values = Array.of_list (List.map snd relevant) in
        let forced_mask =
          Array.to_list positions
          |> List.mapi (fun k pos -> if cfg.forced pos then 1 lsl k else 0)
          |> List.fold_left ( lor ) 0
        in
        let kids, cells =
          match Md_tree.children tree node with
          | Md_tree.Nodes ns -> (Array.of_list ns, [||])
          | Md_tree.Cells cs -> ([||], Array.of_list cs)
        in
        let child_count =
          if Array.length kids > 0 then Array.length kids
          else Array.length cells
        in
        let signs =
          Array.init child_count (fun rank ->
              Array.map
                (fun pos ->
                  Md_tree.sign_to_child tree node ~coeff_flat:pos
                    ~child_rank:rank)
                positions)
        in
        let kid_caps = Array.map subtree_cap kids in
        let info =
          {
            node;
            cap = subtree_cap node;
            positions;
            values;
            forced_mask;
            kids;
            cells;
            signs;
            kid_caps;
          }
        in
        Hashtbl.replace info_table id info;
        info
  in
  let memo : (int * int * int, entry) Hashtbl.t = Hashtbl.create 4096 in
  let rec solve node b e =
    let info = info_of node in
    let b = Stdlib.min b info.cap in
    let key = (node_id node, b, key_of_error e) in
    match Hashtbl.find_opt memo key with
    | Some entry -> entry.value
    | None ->
        on_state ();
        let k = Array.length info.positions in
        let m =
          if Array.length info.kids > 0 then Array.length info.kids
          else Array.length info.cells
        in
        let leaf_children = Array.length info.kids = 0 in
        let best = ref Float.infinity in
        let best_subset = ref [] in
        let best_allocs = ref [||] in
        let free_mask = ((1 lsl k) - 1) land lnot info.forced_mask in
        Bits.iter_submasks free_mask (fun sub ->
            let smask = sub lor info.forced_mask in
            let ssize = Bits.popcount smask in
            if ssize <= b then begin
              let brem = b - ssize in
              (* Incoming error of each child: parent error plus the
                 dropped coefficients' signed contributions, rounded. *)
              let e_child =
                Array.init m (fun i ->
                    let acc = ref e in
                    for kk = 0 to k - 1 do
                      if smask land (1 lsl kk) = 0 then
                        acc :=
                          !acc
                          +. (float_of_int info.signs.(i).(kk) *. info.values.(kk))
                    done;
                    round_error !acc)
              in
              let child_value i x =
                if leaf_children then
                  Float.abs e_child.(i) /. cfg.leaf_denominator info.cells.(i)
                else solve info.kids.(i) x e_child.(i)
              in
              let child_cap i = if leaf_children then 0 else info.kid_caps.(i) in
              (* Sequential split of brem across the m children
                 (the child-list generalization of Section 3.2.1). *)
              let a = Array.make_matrix (m + 1) (brem + 1) Float.neg_infinity in
              let choice = Array.make_matrix (m + 1) (brem + 1) 0 in
              for i = m - 1 downto 0 do
                for r = 0 to brem do
                  let hi = Stdlib.min r (child_cap i) in
                  let best_v = ref Float.infinity and best_x = ref 0 in
                  for x = 0 to hi do
                    let v = Float.max (child_value i x) a.(i + 1).(r - x) in
                    if v < !best_v then begin
                      best_v := v;
                      best_x := x
                    end
                  done;
                  a.(i).(r) <- !best_v;
                  choice.(i).(r) <- !best_x
                done
              done;
              let v = a.(0).(brem) in
              if v < !best then begin
                best := v;
                best_subset :=
                  Bits.to_list smask |> List.map (fun kk -> info.positions.(kk));
                let allocs = Array.make m 0 in
                let r = ref brem in
                for i = 0 to m - 1 do
                  allocs.(i) <- choice.(i).(!r);
                  r := !r - allocs.(i)
                done;
                best_allocs := allocs
              end
            end);
        let entry =
          { value = !best; subset = !best_subset; allocs = !best_allocs }
        in
        Hashtbl.replace memo key entry;
        entry.value
  in
  let top_value = solve Md_tree.Root budget 0. in
  if not (Float.is_finite top_value) then None
  else begin
    let retained = ref [] in
    let rec trace node b e =
      let info = info_of node in
      let b = Stdlib.min b info.cap in
      let entry = Hashtbl.find memo (node_id node, b, key_of_error e) in
      retained := entry.subset @ !retained;
      if Array.length info.kids > 0 then begin
        let k = Array.length info.positions in
        let in_subset pos = List.mem pos entry.subset in
        Array.iteri
          (fun i kid ->
            let acc = ref e in
            for kk = 0 to k - 1 do
              if not (in_subset info.positions.(kk)) then
                acc :=
                  !acc +. (float_of_int info.signs.(i).(kk) *. info.values.(kk))
            done;
            trace kid entry.allocs.(i) (round_error !acc))
          info.kids
      end
    in
    trace Md_tree.Root budget 0.;
    Log.debug (fun m ->
        m "solved cells=%d budget=%d states=%d value=%g" total_cells budget
          (Hashtbl.length memo) top_value);
    Some
      { value = top_value; retained = !retained; dp_states = Hashtbl.length memo }
  end

(* --- the flat kernel ---

   Same recurrence and evaluation order as the reference (bit-identical
   outcomes, the same dp_states count, the same [on_state] order), with
   nothing allocated per state:

   - the tau-independent static shape of every node (coefficient
     positions, per-child signs, children, caps) is computed once into
     a {!skeleton} that callers running many DPs over one tree — the
     (1+eps) tau sweep — build once and share across candidates and
     pool domains; the per-run view adds each node's signed
     coefficient contributions per child and its cells' leaf
     denominators;
   - states live in int and float slabs: a value, the winning retained
     mask ([-1] = unvisited) and the children's allotments per state.
     A row is the run of states of one (node, error key) pair, one per
     capped budget; rows are bump-allocated on first touch and found
     through an open-addressing index keyed by the pair;
   - rounding is first-order data: the error key comes out of the same
     step that rounds, breakpoints and their keys are read from tables
     built with the reference's own functions, and a child's rounded
     incoming error travels through a per-depth slot, not a boxed
     float argument;
   - for each retained subset and child the row is looked up once, and
     the child's values for every allotment the split can give it are
     read into a per-depth column in ascending allotment — the order in
     which the reference first probes them, so states are created and
     [on_state] fires in the same order. The budget split then runs
     over the column. Its rows are nonincreasing in the budget, so a
     candidate scan stops once the rest budget's value cannot beat the
     best; and the last child's row is a running prefix minimum.

   docs/KERNELS.md states the layout and allocation contract. *)

(* Tau-independent static structure of one node. *)
type node_static = {
  st_node : Md_tree.node;
  st_depth : int;  (* recursion depth: Root = 0, level-l cube = l + 1 *)
  st_cap : int;
  st_raw_pos : int array;  (* every coefficient position of the node *)
  st_raw_signs : int array array;  (* st_raw_signs.(child_rank).(k) *)
  st_kids : Md_tree.node array;
  st_kid_ids : int array;
  st_kid_caps : int array;
  st_cells : int array array;
}

type skeleton = {
  sk_nodes : node_static array;  (* indexed by dense node id *)
  sk_levels : int;
  sk_max_children : int;
  sk_total_cells : int;
}

let skeleton ~tree =
  let d = Md_tree.ndim tree in
  let levels = Md_tree.levels tree in
  let total_cells = pow_int (Md_tree.side tree) d in
  let base = make_base ~d ~levels in
  let node_id = node_id base in
  let subtree_cap = subtree_cap tree ~total_cells in
  let count = base.(levels) in
  let nodes = Array.make count None in
  let max_children = ref 1 in
  let rec build node depth =
    let id = node_id node in
    let raw = Md_tree.node_coeffs tree node in
    let raw_pos = Array.map fst raw in
    let kids, cells =
      match Md_tree.children tree node with
      | Md_tree.Nodes ns -> (Array.of_list ns, [||])
      | Md_tree.Cells cs -> ([||], Array.of_list cs)
    in
    let child_count =
      if Array.length kids > 0 then Array.length kids else Array.length cells
    in
    if child_count > !max_children then max_children := child_count;
    let raw_signs =
      Array.init child_count (fun rank ->
          Array.map
            (fun pos ->
              Md_tree.sign_to_child tree node ~coeff_flat:pos ~child_rank:rank)
            raw_pos)
    in
    nodes.(id) <-
      Some
        {
          st_node = node;
          st_depth = depth;
          st_cap = subtree_cap node;
          st_raw_pos = raw_pos;
          st_raw_signs = raw_signs;
          st_kids = kids;
          st_kid_ids = Array.map node_id kids;
          st_kid_caps = Array.map subtree_cap kids;
          st_cells = cells;
        };
    Array.iter (fun kid -> build kid (depth + 1)) kids
  in
  build Md_tree.Root 0;
  let nodes =
    Array.map
      (function Some st -> st | None -> invalid_arg "Md_dp.skeleton: gap")
      nodes
  in
  {
    sk_nodes = nodes;
    sk_levels = levels;
    sk_max_children = !max_children;
    sk_total_cells = total_cells;
  }

(* Per-run, tau-dependent view of a node: the DP-relevant coefficients
   (non-zero DP value or forced), and for child [i] and coefficient [kk]
   the signed contribution [f_sv.(i * k + kk)] it adds to the child's
   incoming error when dropped. [f_denoms] holds the leaf denominators
   of a node whose children are data cells. *)
type finfo = {
  f_positions : int array;
  f_forced_mask : int;
  f_sv : float array;
  f_denoms : float array;
}

let finfo_of cfg st =
  let raw = st.st_raw_pos in
  let n_raw = Array.length raw in
  let keep = Array.make n_raw false in
  let kept = ref 0 in
  let vals = Array.make n_raw 0. in
  for k = 0 to n_raw - 1 do
    let v = cfg.coeff_value raw.(k) in
    vals.(k) <- v;
    if v <> 0. || cfg.forced raw.(k) then begin
      keep.(k) <- true;
      incr kept
    end
  done;
  let k = !kept in
  let positions = Array.make k 0 in
  let values = Array.make k 0. in
  let sel = Array.make k 0 in
  let w = ref 0 in
  for kk = 0 to n_raw - 1 do
    if keep.(kk) then begin
      positions.(!w) <- raw.(kk);
      values.(!w) <- vals.(kk);
      sel.(!w) <- kk;
      incr w
    end
  done;
  let forced_mask = ref 0 in
  for kk = 0 to k - 1 do
    if cfg.forced positions.(kk) then forced_mask := !forced_mask lor (1 lsl kk)
  done;
  let signs = st.st_raw_signs in
  let f_sv = Array.make (Array.length signs * k) 0. in
  Array.iteri
    (fun i row ->
      for kk = 0 to k - 1 do
        f_sv.((i * k) + kk) <- float_of_int row.(sel.(kk)) *. values.(kk)
      done)
    signs;
  {
    f_positions = positions;
    f_forced_mask = !forced_mask;
    f_sv;
    f_denoms = Array.map cfg.leaf_denominator st.st_cells;
  }

(* The rounding as the flat kernel runs it. [Steps] tabulates the
   breakpoints: [mags.(k - kmin)] is [(1+ε)^k], and [pos_keys],
   [neg_keys] are the keys of [+(1+ε)^k] and [-(1+ε)^k], each computed
   by the reference's own [breakpoint] and [key_of]. *)
type steps =
  | Identity
  | Steps of {
      grid : grid;
      mags : float array;
      pos_keys : int array;
      neg_keys : int array;
    }

let steps = function
  | Exact -> Identity
  | Breakpoints { epsilon; vmin; vmax } ->
      let g = grid ~epsilon ~vmin ~vmax in
      let mags =
        Array.init (g.kmax - g.kmin + 1) (fun j -> breakpoint g (g.kmin + j))
      in
      Steps
        {
          grid = g;
          mags;
          pos_keys = Array.map (key_of g) mags;
          neg_keys = Array.map (fun v -> key_of g (-.v)) mags;
        }

(* Round [acc] into [es.(i)] and its key into [keys.(i)]: [round_error]
   then [key_of_error], without a boxed float. *)
let[@inline] round_into steps es keys i acc =
  match steps with
  | Identity ->
      es.(i) <- acc;
      keys.(i) <- int_of_float acc
  | Steps { grid = g; mags; pos_keys; neg_keys } ->
      if Float.abs acc < g.vmin then begin
        es.(i) <- 0.;
        keys.(i) <- 0
      end
      else begin
        let l = Float.log (Float.abs acc) /. g.log_base in
        if acc > 0. then begin
          let j = clamp g (int_of_float (Float.floor (l +. 1e-12))) - g.kmin in
          es.(i) <- mags.(j);
          keys.(i) <- pos_keys.(j)
        end
        else begin
          let j = clamp g (int_of_float (Float.ceil (l -. 1e-12))) - g.kmin in
          es.(i) <- -.mags.(j);
          keys.(i) <- neg_keys.(j)
        end
      end

(* The incoming error of each of the [m] children under retained mask
   [smask]: the parent error [e] plus the dropped coefficients' signed
   contributions, rounded into [es] and keyed into [keys]. *)
let[@inline] child_errors rounding sv ~m ~k smask e es keys =
  for i = 0 to m - 1 do
    let acc = ref e in
    for kk = 0 to k - 1 do
      if smask land (1 lsl kk) = 0 then acc := !acc +. sv.((i * k) + kk)
    done;
    round_into rounding es keys i !acc
  done

(* [Float.max], inlined: the split loop runs it per candidate, and the
   stdlib function takes its arguments boxed. The same result for every
   pair of floats, signed zeros and NaNs included. *)
let[@inline] fmax (x : float) (y : float) =
  if x > y then x
  else if y > x then y
  else if (not (Float.sign_bit y)) && Float.sign_bit x then
    if Float.is_nan x then x else y
  else if Float.is_nan y then y
  else x

(* The state slabs. State [s] has value [values.(s)], winning retained
   mask [masks.(s)] ([-1] while unvisited) and child allotments
   [allots.(s * fanout + i)]; a row of [width] states is bump-allocated
   at [used] and the slabs grow by doubling. *)
type slab = {
  mutable values : float array;
  mutable masks : int array;
  mutable allots : int array;
  mutable used : int;
  fanout : int;  (* the most children of any node *)
}

let slab_reserve t need =
  let cap = Array.length t.masks in
  if need > cap then begin
    let size = ref (2 * cap) in
    while !size < need do
      size := 2 * !size
    done;
    let grow a fill per_state =
      let b = Array.make (!size * per_state) fill in
      Array.blit a 0 b 0 (t.used * per_state);
      b
    in
    t.values <- grow t.values Float.nan 1;
    t.masks <- grow t.masks (-1) 1;
    t.allots <- grow t.allots 0 t.fanout
  end

(* Row index: (node id, error key) -> the row's first state, open
   addressing with linear probing over one int array of [(id, key,
   base)] triples, so a probe reads one cache line; an id of [-1] marks
   an empty slot. *)
type rows = { mutable slots : int array; mutable count : int }

let[@inline] rows_capacity r = Array.length r.slots / 3

let rec rows_find slots mask id key h =
  let i = slots.(3 * h) in
  if i < 0 || (i = id && slots.((3 * h) + 1) = key) then h
  else rows_find slots mask id key ((h + 1) land mask)

let rows_slot r id key =
  let mask = rows_capacity r - 1 in
  rows_find r.slots mask id key
    (((((key * 0x2545F4914F6CDD1D) + id) * 0x2545F4914F6CDD1D) lsr 21) land mask)

let rows_insert r id key base =
  let h = rows_slot r id key in
  r.slots.(3 * h) <- id;
  r.slots.((3 * h) + 1) <- key;
  r.slots.((3 * h) + 2) <- base;
  r.count <- r.count + 1

let rows_create capacity = { slots = Array.make (3 * capacity) (-1); count = 0 }

let rows_grow r =
  let old = r.slots in
  r.slots <- Array.make (2 * Array.length old) (-1);
  r.count <- 0;
  for h = 0 to (Array.length old / 3) - 1 do
    if old.(3 * h) >= 0 then
      rows_insert r old.(3 * h) old.((3 * h) + 1) old.((3 * h) + 2)
  done

(* The first state of the (id, key) row, allocating the row of [width]
   unvisited states on first touch. *)
let row_base r t id key ~width =
  let h = rows_slot r id key in
  if r.slots.(3 * h) >= 0 then r.slots.((3 * h) + 2)
  else begin
    let base = t.used in
    slab_reserve t (base + width);
    t.used <- base + width;
    rows_insert r id key base;
    if 2 * r.count > rows_capacity r then rows_grow r;
    base
  end

let run_flat ~on_state ~skeleton:sk ~budget cfg =
  let states = ref 0 in
  let nodes = sk.sk_nodes in
  let infos = Array.map (finfo_of cfg) nodes in
  let widths = Array.map (fun st -> Stdlib.min budget st.st_cap + 1) nodes in
  let rounding = steps cfg.rounding in
  let mc = sk.sk_max_children in
  let t =
    {
      values = Array.make 1024 Float.nan;
      masks = Array.make 1024 (-1);
      allots = Array.make (1024 * mc) 0;
      used = 0;
      fanout = mc;
    }
  in
  let rows = rows_create 256 in
  (* Per-depth scratch, reused by every state at that depth: the
     children's rounded incoming errors and keys, one child's column,
     and the flat value/choice tables of the budget-split DP (stride
     budget + 1). [inc.(d)] is the incoming error of the state being
     filled at depth [d]: its parent writes it just before the fill,
     and the state reads it once on entry. *)
  let depths = sk.sk_levels + 2 in
  let stride = budget + 1 in
  let scratch_e = Array.init depths (fun _ -> Array.make mc 0.) in
  let scratch_k = Array.init depths (fun _ -> Array.make mc 0) in
  let scratch_col = Array.init depths (fun _ -> Array.make stride 0.) in
  let scratch_a = Array.init depths (fun _ -> Array.make (mc * stride) 0.) in
  let scratch_c = Array.init depths (fun _ -> Array.make (mc * stride) 0) in
  let inc = Array.make depths 0. in
  let rec fill id b s =
    on_state ();
    incr states;
    let st = nodes.(id) and f = infos.(id) in
    let depth = st.st_depth in
    let e = inc.(depth) in
    let k = Array.length f.f_positions in
    let leaf_children = Array.length st.st_kids = 0 in
    let m =
      if leaf_children then Array.length st.st_cells
      else Array.length st.st_kids
    in
    let es = scratch_e.(depth) and keys = scratch_k.(depth) in
    let forced = f.f_forced_mask in
    let free_mask = ((1 lsl k) - 1) land lnot forced in
    let best = ref Float.infinity and best_mask = ref 0 in
    (* Retained subsets in [Bits.iter_submasks] order: descending. *)
    let sub = ref free_mask and more = ref true in
    while !more do
      let smask = !sub lor forced in
      let ssize = Bits.popcount smask in
      if ssize <= b then begin
        child_errors rounding f.f_sv ~m ~k smask e es keys;
        if leaf_children then begin
          (* Every child is a data cell with cap 0: each split row is
             the running max of the cells' errors, read right to left. *)
          let v = ref Float.neg_infinity in
          let denoms = f.f_denoms in
          for i = m - 1 downto 0 do
            let x = fmax (Float.abs es.(i) /. denoms.(i)) !v in
            v := if x < Float.infinity then x else Float.infinity
          done;
          if !v < !best then begin
            best := !v;
            best_mask := smask
          end
        end
        else begin
          let brem = b - ssize in
          split st depth brem;
          let v = scratch_a.(depth).(brem) in
          if v < !best then begin
            best := v;
            best_mask := smask;
            let choice = scratch_c.(depth) and allots = t.allots in
            let r = ref brem in
            for i = 0 to m - 1 do
              let x = choice.((i * stride) + !r) in
              allots.((s * mc) + i) <- x;
              r := !r - x
            done
          end
        end
      end;
      if !sub = 0 then more := false else sub := (!sub - 1) land free_mask
    done;
    t.values.(s) <- !best;
    t.masks.(s) <- !best_mask
  (* The sequential split of [brem] across the children of [st] (the
     child-list generalization of Section 3.2.1): row [i] of the value
     table is the best max-error of children [i..m-1] per budget, and
     [choice] the first allotment to child [i] reaching it. Child [i]'s
     column holds its values for every allotment [x <= min brem cap],
     probed in ascending [x] after the children above it — the order in
     which the reference first probes them, so fresh states are created
     in its order. *)
  and split st depth brem =
    let es = scratch_e.(depth) and keys = scratch_k.(depth) in
    let col = scratch_col.(depth) in
    let a = scratch_a.(depth) and choice = scratch_c.(depth) in
    let m = Array.length st.st_kids in
    for i = m - 1 downto 0 do
      let kid = st.st_kid_ids.(i) in
      let hi = Stdlib.min brem st.st_kid_caps.(i) in
      let base = row_base rows t kid keys.(i) ~width:widths.(kid) in
      for x = 0 to hi do
        let s = base + x in
        if t.masks.(s) < 0 then begin
          inc.(depth + 1) <- es.(i);
          fill kid x s
        end;
        col.(x) <- t.values.(s)
      done;
      let row = i * stride in
      if i = m - 1 then begin
        (* Against the empty rest ([neg_infinity]) a candidate is the
           column value itself. *)
        let bv = ref Float.infinity and bx = ref 0 in
        for r = 0 to brem do
          if r <= hi && col.(r) < !bv then begin
            bv := col.(r);
            bx := r
          end;
          a.(row + r) <- !bv;
          choice.(row + r) <- !bx
        done
      end
      else begin
        let next = row + stride in
        for r = 0 to brem do
          let hr = Stdlib.min r hi in
          let bv = ref Float.infinity and bx = ref 0 in
          let x = ref 0 in
          while !x <= hr do
            let rest = a.(next + r - !x) in
            if rest >= !bv then x := hr + 1
            else begin
              let v = fmax col.(!x) rest in
              if v < !bv then begin
                bv := v;
                bx := !x
              end;
              incr x
            end
          done;
          a.(row + r) <- !bv;
          choice.(row + r) <- !bx
        done
      end
    done
  in
  (* The root's incoming error is 0., whose key is 0 under every
     rounding. *)
  let root_b = Stdlib.min budget nodes.(0).st_cap in
  let root = row_base rows t 0 0 ~width:widths.(0) + root_b in
  inc.(0) <- 0.;
  fill 0 root_b root;
  let top_value = t.values.(root) in
  if not (Float.is_finite top_value) then None
  else begin
    let retained = ref [] in
    let es = Array.make mc 0. and keys = Array.make mc 0 in
    let rec trace id b key e =
      let st = nodes.(id) and f = infos.(id) in
      let b = Stdlib.min b st.st_cap in
      let s = row_base rows t id key ~width:widths.(id) + b in
      let smask = t.masks.(s) in
      let k = Array.length f.f_positions in
      retained :=
        List.map (fun kk -> f.f_positions.(kk)) (Bits.to_list smask)
        @ !retained;
      Array.iteri
        (fun i kid ->
          let acc = ref e in
          for kk = 0 to k - 1 do
            if smask land (1 lsl kk) = 0 then acc := !acc +. f.f_sv.((i * k) + kk)
          done;
          round_into rounding es keys i !acc;
          trace kid t.allots.((s * mc) + i) keys.(i) es.(i))
        st.st_kid_ids
    in
    trace 0 budget 0 0.;
    Log.debug (fun m ->
        m "solved cells=%d budget=%d states=%d value=%g (flat)"
          sk.sk_total_cells budget !states top_value);
    Some { value = top_value; retained = !retained; dp_states = !states }
  end

let run ?(on_state = fun () -> ()) ?(impl = Flat) ?skeleton:sk ~tree ~budget cfg
    =
  if budget < 0 then invalid_arg "Md_dp.run: negative budget";
  match impl with
  | Reference -> run_reference ~on_state ~tree ~budget cfg
  | Flat ->
      let sk = match sk with Some sk -> sk | None -> skeleton ~tree in
      run_flat ~on_state ~skeleton:sk ~budget cfg
