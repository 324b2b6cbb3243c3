(** Dense 2-D float tensors (rows × cols). Transformer activations are
    token × dim matrices throughout; images enter via patch flattening. *)

type t

val create : int -> int -> float -> t
val zeros : int -> int -> t
val init : int -> int -> (int -> int -> float) -> t
val of_arrays : float array array -> t
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val transpose : t -> t
val matmul : t -> t -> t

(** Row-wise softmax. *)
val softmax_rows : t -> t

(** Column-wise softmax. *)
val softmax_cols : t -> t

(** Exact GELU (tanh form). *)
val gelu_exact : float -> float

(** Per-row layer normalisation with learned gain/bias. *)
val layernorm : ?eps:float -> t -> gamma:float array -> beta:float array -> t

(** Mean over all rows (1 × cols). *)
val mean_rows : t -> t

(** Token down-sampling by averaging groups of [factor] consecutive rows. *)
val pool_rows : t -> int -> t

val argmax_row : t -> int -> int

(** Seeded Gaussian init (Box–Muller). *)
val random_gaussian : Random.State.t -> int -> int -> std:float -> t

val frobenius_diff : t -> t -> float
