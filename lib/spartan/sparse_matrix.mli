(** Sparse matrices over a field viewed as multilinear extensions
    Ã(x, y) on {0,1}^µ × {0,1}^ν — the representation Spartan's two
    sumcheck phases work with. *)

module Make (F : Zkvc_field.Field_intf.S) : sig
  type entry = { row : int; col : int; value : F.t }

  type t

  (** [create ~mu ~nu entries]: 2^µ rows by 2^ν columns. Raises
      [Invalid_argument] on out-of-range entries. *)
  val create : mu:int -> nu:int -> entry list -> t

  (** [mul_vec t z] is the length-2^µ vector [M·z]. *)
  val mul_vec : t -> F.t array -> F.t array

  (** [fold_rows t ~scale w acc] adds the row fold [scale·(wᵀ·M)]
      (length 2^ν) into [acc]: one multiplication per nonzero, plus one
      per run of same-row entries for the scaled weight. Spartan builds
      its phase-two table [y ↦ Σ_x eq̃(rx,x)·(ra·Ã + rb·B̃ + rc·C̃)(x,y)]
      as three folds into one vector, scaled by ra, rb and rc. Raises
      [Invalid_argument] unless [w] has length 2^µ and [acc] length 2^ν. *)
  val fold_rows : t -> scale:F.t -> F.t array -> F.t array -> unit

  (** [eval_tables t ~row_w ~col_w] is Ã(rx, ry) given the tables
      [row_w = eq̃(rx,·)] (length 2^µ) and [col_w = eq̃(ry,·)] (length 2^ν):
      two multiplications per nonzero, so O(nnz) once the tables
      (O(2^µ + 2^ν)) are built — the SpartanNIZK verifier's work. Raises
      [Invalid_argument] on a table of the wrong length. *)
  val eval_tables : t -> row_w:F.t array -> col_w:F.t array -> F.t
end
