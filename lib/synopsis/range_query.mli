(** Range-aggregate answering directly from a wavelet synopsis.

    This is the approximate-query-processing substrate of Matias,
    Vitter & Wang [15] and Vitter & Wang [21]: a retained coefficient
    contributes to the sum over a range in closed form, so a range-SUM
    costs O(log n) in one dimension (only the coefficients on the
    paths of its endpoints contribute) and O(B D) over a
    multi-dimensional rectangle, instead of touching the data. *)

val range_sum_exact : float array -> lo:int -> hi:int -> float
(** Exact sum of [data.(lo .. hi)] (inclusive bounds). *)

val range_sum : Synopsis.t -> lo:int -> hi:int -> float
(** Approximate sum of the reconstructed values over [lo .. hi]
    (inclusive), in O(log n) — each coefficient contributes
    [c * (overlap with its positive half - overlap with its negative
    half)], and only the ≤ 2·log2 n + 1 on the paths of [lo] and [hi]
    can contribute a nonzero term ({!Synopsis.path_sum}, which reads
    the synopsis's 8·n-byte coefficient index). For finite
    coefficients the result is bit-identical to the O(B) fold over all
    retained coefficients in index order. Raises [Invalid_argument]
    ["Range_query: invalid range bounds"] unless
    [0 <= lo <= hi < n]. *)

val range_avg : Synopsis.t -> lo:int -> hi:int -> float
(** Approximate average over the range. *)

val selectivity : Synopsis.t -> lo:int -> hi:int -> float
(** For a frequency-vector interpretation of the data: the fraction of
    the total count that falls in [lo .. hi]. The total is itself
    estimated from the synopsis. Returns [0.] when the estimated total
    is not positive. *)

val range_sum_bounded :
  Synopsis.t -> per_cell_bound:float -> lo:int -> hi:int -> float * float
(** [(estimate, half_width)]: the range-sum estimate together with a
    hard error bar derived from a per-value guarantee (e.g. the
    [max_err] of a {!Wavesyn_core.Minmax_dp} synopsis under the
    absolute metric): the exact sum lies within
    [estimate ± (hi - lo + 1) * per_cell_bound]. This is what turns
    the paper's deterministic guarantees into guaranteed query
    intervals. *)

val range_sum_exact_md :
  Wavesyn_util.Ndarray.t -> ranges:(int * int) array -> float
(** Exact sum over a hyper-rectangle given per-dimension inclusive
    bounds [(lo_k, hi_k)]. *)

val range_sum_md : Synopsis.Md.md -> ranges:(int * int) array -> float
(** Approximate hyper-rectangle sum from a multi-dimensional synopsis
    in O(B D). *)
