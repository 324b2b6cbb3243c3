(** Plain matrix-multiplication instances [Y = X·W] with
    [X : a×n], [W : n×b], used as ground truth by circuits and tests. *)

type dims = { a : int; n : int; b : int }

let dims ~a ~n ~b =
  if a <= 0 || n <= 0 || b <= 0 then invalid_arg "Matmul_spec.dims: non-positive";
  { a; n; b }

let pp_dims fmt d = Format.fprintf fmt "[%d,%d]x[%d,%d]" d.a d.n d.n d.b

(** Paper Fig. 3 / Fig. 6 sizes: ViT embedding layers
    [#tokens, dim1] × [dim1, dim2] with 49 tokens. *)
let vit_embedding ~dim2 = { a = 49; n = dim2 / 2; b = dim2 }

module Make (F : Zkvc_field.Field_intf.S) = struct
  let random_matrix st ~rows ~cols ~bound =
    Array.init rows (fun _ ->
        Array.init cols (fun _ -> F.of_int (Random.State.int st bound)))

  let random_statement rng ~bound d =
    let x = random_matrix rng ~rows:d.a ~cols:d.n ~bound in
    let w = random_matrix rng ~rows:d.n ~cols:d.b ~bound in
    (x, w)

  let seeded_statement ~seed ~bound d =
    let rng = Random.State.make [| seed |] in
    let x, w = random_statement rng ~bound d in
    (rng, x, w)

  let multiply = F.mat_mul

  let check_dims d x w =
    Array.length x = d.a
    && Array.for_all (fun row -> Array.length row = d.n) x
    && Array.length w = d.n
    && Array.for_all (fun row -> Array.length row = d.b) w
end
