(** Shared engine for the approximate multi-dimensional dynamic programs
    of Section 3.2.

    Both the ε-additive scheme (3.2.1) and the truncated integer DP
    underlying the (1+ε) absolute-error scheme (3.2.2) tabulate states
    [(error-tree node, budget, incoming additive error)] and differ only
    in how coefficient values and incoming errors are represented:

    - the additive scheme rounds every child's incoming error to a
      breakpoint of the form [±(1+ε)^k];
    - the integer scheme keeps errors exact over (scaled) integer
      coefficients and optionally {e forces} large coefficients into the
      synopsis.

    This module implements the common recurrence: per node, enumerate
    retained subsets [s] of the node's non-zero coefficients (supersets
    of the forced set), propagate the incoming error plus the dropped
    coefficients' signed contributions to each child, and split the
    remaining budget across children with the sequential child-list
    generalization described in the paper. States are memoized top-down,
    so only reachable incoming-error values are ever tabulated.

    The rounding is first-order data ({!rounding}), not a closure, so
    the flat kernel rounds an error and derives its memo key without
    allocating.

    Two memo kernels implement the recurrence ({!impl}): the default
    flat kernel keeps states in int and float slabs, one row per
    (node, rounded-error key) found through an open-addressing index,
    and allocates nothing per state; the reference kernel is the
    original tuple-keyed Hashtbl. Their outcomes are bit-identical;
    [docs/KERNELS.md] states the layout and allocation contract. *)

type rounding =
  | Exact
      (** Errors stay exact: the integer scheme, whose DP-unit
          coefficients are integral. The memo key of an error [e] is
          [int_of_float e]. *)
  | Breakpoints of { epsilon : float; vmin : float; vmax : float }
      (** The additive scheme: an error rounds to a breakpoint of
          [{0} ∪ {±(1+ε)^k, kmin <= k <= kmax}], where [kmin] is
          [floor (log vmin / log (1+ε))] and [kmax] is
          [ceil (log vmax / log (1+ε)) + 1]. A positive error rounds its
          magnitude down, a negative one up, and a magnitude below
          [vmin] rounds to [0]. The key is the breakpoint's index and
          sign. *)

type config = {
  coeff_value : int -> float;
      (** DP-units value of the coefficient at a flat wavelet position
          (e.g. scaled integer, as a float). *)
  rounding : rounding;
      (** Applied to every child's incoming error; also defines the
          memo key of a rounded error. *)
  forced : int -> bool;
      (** Coefficient must be retained (the [S_{>tau}] set of 3.2.2). *)
  leaf_denominator : int array -> float;
      (** The paper's [r] for a data cell: [max (|d_i|, s)] for relative
          error, [1] for absolute error. The flat kernel calls it once
          per cell and run. *)
}

type outcome = {
  value : float;
      (** DP objective in DP units: the (approximate) minimal maximum of
          [|incoming error| / r] over all cells. *)
  retained : int list;  (** flat wavelet positions chosen *)
  dp_states : int;
}

type impl =
  | Flat
      (** state slabs with int-keyed rows, per-depth scratch, nothing
          allocated per state (default; see [docs/KERNELS.md]) *)
  | Reference
      (** the original tuple-keyed memo Hashtbl, kept as the
          bit-identical equivalence oracle ([test/test_kernels.ml]) *)

type skeleton
(** The tau-independent static structure of one error tree: dense node
    ids, per-node coefficient positions, per-child sign columns,
    children and subtree caps. Building it walks the whole tree once;
    sharing one skeleton across the many {!run} calls of a tau sweep
    (and across pool domains — it is immutable after construction)
    removes that walk from every candidate. *)

val skeleton : tree:Wavesyn_haar.Md_tree.t -> skeleton
(** Precompute the static structure of [tree] for {!run}'s flat
    kernel. *)

val run :
  ?on_state:(unit -> unit) ->
  ?impl:impl ->
  ?skeleton:skeleton ->
  tree:Wavesyn_haar.Md_tree.t ->
  budget:int ->
  config ->
  outcome option
(** [None] when the forced coefficients alone exceed the budget.

    [on_state] is invoked once per freshly computed DP state (a memo
    miss) and may raise to abort the run cooperatively — this is how
    [Wavesyn_robust.Deadline] bounds the DP's runtime.

    [impl] picks the memo kernel (default {!Flat}); every field of the
    outcome is identical across kernels. [skeleton], when given, must
    have been built from [tree] and saves the flat kernel its static
    tree walk; it is ignored by the reference kernel. *)
