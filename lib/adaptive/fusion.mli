(** Delegations to the one read evaluator
    ({!Wavesyn_synopsis.Synopsis.path_sum}).

    A range sum reads only the coefficients on its endpoints'
    root-to-leaf paths, through the synopsis's own coefficient index,
    so there is nothing left to plan per round. The module stays only
    because the per-layer benchmark ([wsbench/layers.ml]) calls it; new
    code calls [Range_query] and [Quantiles] directly. *)

type plan = Wavesyn_synopsis.Synopsis.t

val plan : Wavesyn_synopsis.Synopsis.t -> plan
(** The synopsis itself. *)

val range_sum : plan -> lo:int -> hi:int -> float
(** [Range_query.range_sum]. *)

val quantile : plan -> q:float -> int
(** [Quantiles.estimate]. *)
