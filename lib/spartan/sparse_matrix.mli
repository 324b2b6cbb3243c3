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

  (** [fold_rows t w] is the length-2^ν vector [wᵀ·M] — used to build the
      phase-two sumcheck table [y ↦ Σ_x eq̃(rx,x)·M̃(x,y)]. *)
  val fold_rows : t -> F.t array -> F.t array

  (** [eval_tables t ~row_w ~col_w] is Ã(rx, ry) given the tables
      [row_w = eq̃(rx,·)] (length 2^µ) and [col_w = eq̃(ry,·)] (length 2^ν):
      two multiplications per nonzero, so O(nnz) once the tables
      (O(2^µ + 2^ν)) are built — the SpartanNIZK verifier's work. Raises
      [Invalid_argument] on a table of the wrong length. *)
  val eval_tables : t -> row_w:F.t array -> col_w:F.t array -> F.t
end
