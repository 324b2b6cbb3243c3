(** The primitive verifiable operations a Transformer inference decomposes
    into. {!Compiler} lowers a model to a multiset of these;
    {!Layer_circuit} builds each as an R1CS and counts its constraints
    without building full-size circuits. *)

type t =
  | Op_matmul of Zkvc.Matmul_spec.dims
  | Op_rescale of int (** fixed-point re-normalisations, per element *)
  | Op_scale_div of { elems : int; divisor : int }
      (** verified floor division by a constant, per element *)
  | Op_softmax of { rows : int; len : int }
  | Op_gelu of int (** activations, per element *)
  | Op_layernorm of { rows : int; cols : int }
  | Op_mean_pool of { out_elems : int; window : int }

val name : t -> string
val pp : Format.formatter -> t -> unit

type counts = { constraints : int; variables : int }

val zero_counts : counts
val add_counts : counts -> counts -> counts
