(** Wavelet synopses: sparse sets of retained Haar coefficients
    (Section 2.3).

    A synopsis stores [B << N] coefficients; all others are implicitly
    zero. One-dimensional synopses address coefficients by their
    {!Wavesyn_haar.Haar1d} index; multi-dimensional ones by the flat
    row-major position in the wavelet array. *)

type t
(** One-dimensional synopsis. Besides the retained list it keeps a
    dense index of all [n] coefficient slots ([0.] where none is
    retained), 8·n bytes, built once by {!make}; the reads below look
    coefficients up there. *)

val make : n:int -> (int * float) list -> t
(** [make ~n coeffs] builds a synopsis over a domain of [n] cells ([n]
    a power of two). Raises [Invalid_argument] on out-of-range or
    duplicate indices. Coefficients with value [0.] are dropped. *)

val of_wavelet : wavelet:float array -> int list -> t
(** Retain the given indices of a full transform. *)

val n : t -> int
(** Domain size. *)

val size : t -> int
(** Number of retained (non-zero) coefficients — the space the synopsis
    actually occupies. *)

val coeffs : t -> (int * float) list
(** Retained coefficients, sorted by index. *)

val mem : t -> int -> bool
(** Is this coefficient index retained? *)

val path_sum : t -> lo:int -> hi:int -> float
(** Approximate sum of the reconstructed values over [lo .. hi]
    (inclusive; the caller guarantees [0 <= lo <= hi < n]) in
    O(log n). The read evaluator behind {!reconstruct_point},
    [Range_query.range_sum] (O(log n) per range) and
    [Quantiles.estimate] (O(log² n) per quantile).

    Only coefficients whose support contains [lo] or [hi] — [c_0] and
    the ancestors of [lo] and [hi] in the error tree, at most
    [2 log2 n + 1] — can add a nonzero term; every other detail
    coefficient misses the range or lies inside it, and adds an exact
    [±0.]. The walk sums the path terms [c * (left - right)] in
    ascending index order from an accumulator of [+0.], which never
    becomes [-0.], so leaving the zero terms out changes no bit: the
    result equals the fold over all retained coefficients in index
    order bit for bit, {e provided every coefficient is finite} (with
    an infinite one the full fold gives [nan] on every range, since
    [inf *. 0. = nan], and the walk does not). *)

val reconstruct_point : t -> int -> float
(** Approximate data value [d_i]: {!path_sum} over [[i, i]], O(log n),
    bit-identical to [Haar1d.point_from_set] over the retained
    coefficients when they are finite. Raises [Invalid_argument] when
    [i] is outside [[0, n)]. *)

val reconstruct : t -> float array
(** All approximate data values: scatter the retained coefficients into
    a zero transform and invert, O(N). *)

val level_histogram : t -> int array
(** Number of retained coefficients per resolution level (index 0 =
    the coarsest level, which can hold both [c_0] and [c_1]); length
    [max 1 (log2 n)]. Used to study where a thresholding strategy
    spends its budget. *)

val describe : t -> string
(** Human-readable listing such as ["{c0=2.75; c1=-1.25}"]. *)

val to_string : t -> string
(** Compact textual serialization. *)

val of_string : ?n:int -> string -> t
(** Inverse of {!to_string}; raises [Failure] on malformed input,
    including a non-finite ([inf], [nan]) coefficient and anything
    {!make} rejects. With [~n], a domain size other than [n] fails
    before the synopsis (and its n-slot index) is built. *)

(** Multi-dimensional synopses. *)
module Md : sig
  type md

  val make : dims:int array -> (int * float) list -> md
  (** Coefficients given as (flat position, value); dimensions must be
      equal powers of two. *)

  val of_tree : Wavesyn_haar.Md_tree.t -> (int * float) list -> md

  val dims : md -> int array
  val size : md -> int
  val coeffs : md -> (int * float) list

  val reconstruct_cell : md -> int array -> float
  (** Approximate value of one cell in O(B 2^D). *)

  val reconstruct : md -> Wavesyn_util.Ndarray.t
  (** All approximate cell values via the inverse transform. *)
end
