(** The primitive verifiable operations a Transformer inference decomposes
    into. The compiler ({!Compiler}) lowers a model to a multiset of these;
    {!Layer_circuit} knows how to build each as an R1CS and how to count
    its constraints without building the full-size circuit. *)

type t =
  | Op_matmul of Zkvc.Matmul_spec.dims
  | Op_rescale of int (* fixed-point re-normalisations, per element *)
  | Op_scale_div of { elems : int; divisor : int } (* verified /c per element *)
  | Op_softmax of { rows : int; len : int }
  | Op_gelu of int (* activations, per element *)
  | Op_layernorm of { rows : int; cols : int }
  | Op_mean_pool of { out_elems : int; window : int }

let name = function
  | Op_matmul _ -> "matmul"
  | Op_rescale _ -> "rescale"
  | Op_scale_div _ -> "scale-div"
  | Op_softmax _ -> "softmax"
  | Op_gelu _ -> "gelu"
  | Op_layernorm _ -> "layernorm"
  | Op_mean_pool _ -> "mean-pool"

let pp fmt = function
  | Op_matmul d -> Format.fprintf fmt "matmul %a" Zkvc.Matmul_spec.pp_dims d
  | Op_rescale n -> Format.fprintf fmt "rescale x%d" n
  | Op_scale_div { elems; divisor } -> Format.fprintf fmt "scale-div x%d by %d" elems divisor
  | Op_softmax { rows; len } -> Format.fprintf fmt "softmax %d rows of %d" rows len
  | Op_gelu n -> Format.fprintf fmt "gelu x%d" n
  | Op_layernorm { rows; cols } -> Format.fprintf fmt "layernorm %d x %d" rows cols
  | Op_mean_pool { out_elems; window } ->
    Format.fprintf fmt "mean-pool %d outs (window %d)" out_elems window

type counts = { constraints : int; variables : int }

let zero_counts = { constraints = 0; variables = 0 }

let add_counts a b =
  { constraints = a.constraints + b.constraints; variables = a.variables + b.variables }
