(** Plain matrix-multiplication instances [Y = X·W] with [X : a×n],
    [W : n×b] — the statements zkVC proves. *)

type dims = { a : int; n : int; b : int }

(** Raises [Invalid_argument] on non-positive dimensions. *)
val dims : a:int -> n:int -> b:int -> dims

val pp_dims : Format.formatter -> dims -> unit

(** Paper Fig. 3 / Fig. 6 sizes: ViT embedding layers
    [#tokens, dim1] × [dim1, dim2] with 49 tokens and dim1 = dim2/2. *)
val vit_embedding : dim2:int -> dims

module Make (F : Zkvc_field.Field_intf.S) : sig
  val random_matrix : Random.State.t -> rows:int -> cols:int -> bound:int -> F.t array array

  (** The seeded statement the CLI and the proof service prove: a fresh
      [rng] from [seed] draws X, then W, with entries below [bound].
      The same [rng] then feeds keygen and prove, so a given seed yields
      byte-identical proofs wherever it is proved. *)
  val seeded_statement :
    seed:int -> bound:int -> dims ->
    Random.State.t * F.t array array * F.t array array

  (** Reference product. Raises [Invalid_argument] on dimension mismatch. *)
  val multiply : F.t array array -> F.t array array -> F.t array array

  val check_dims : dims -> F.t array array -> F.t array array -> bool
end
