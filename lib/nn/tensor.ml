(** Minimal dense 2-D float tensors (rows × cols). Transformer activations
    are token × dim matrices throughout, so 2-D is all the model stack
    needs; images enter via patch flattening. *)

type t = { rows : int; cols : int; data : float array }

let create rows cols v =
  if rows <= 0 || cols <= 0 then invalid_arg "Tensor.create";
  { rows; cols; data = Array.make (rows * cols) v }

let zeros rows cols = create rows cols 0.

let init rows cols f =
  { rows; cols; data = Array.init (rows * cols) (fun i -> f (i / cols) (i mod cols)) }

let of_arrays a =
  let rows = Array.length a in
  if rows = 0 then invalid_arg "Tensor.of_arrays: empty";
  let cols = Array.length a.(0) in
  init rows cols (fun i j -> a.(i).(j))

let rows t = t.rows
let cols t = t.cols
let get t i j = t.data.((i * t.cols) + j)
let set t i j v = t.data.((i * t.cols) + j) <- v

let map f t = { t with data = Array.map f t.data }

let map2 f a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Tensor.map2: shape";
  { a with data = Array.init (Array.length a.data) (fun i -> f a.data.(i) b.data.(i)) }

let add = map2 ( +. )
let sub = map2 ( -. )
let scale k = map (fun v -> k *. v)

let transpose t = init t.cols t.rows (fun i j -> get t j i)

let matmul a b =
  if a.cols <> b.rows then invalid_arg "Tensor.matmul: inner dims";
  let out = zeros a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = get a i k in
      if aik <> 0. then
        for j = 0 to b.cols - 1 do
          set out i j (get out i j +. (aik *. get b k j))
        done
    done
  done;
  out

(** Row-wise softmax. *)
let softmax_rows t =
  let out = zeros t.rows t.cols in
  for i = 0 to t.rows - 1 do
    let m = ref neg_infinity in
    for j = 0 to t.cols - 1 do
      if get t i j > !m then m := get t i j
    done;
    let sum = ref 0. in
    for j = 0 to t.cols - 1 do
      let e = exp (get t i j -. !m) in
      set out i j e;
      sum := !sum +. e
    done;
    for j = 0 to t.cols - 1 do
      set out i j (get out i j /. !sum)
    done
  done;
  out

(** Column-wise softmax (used by scaling attention). *)
let softmax_cols t = transpose (softmax_rows (transpose t))

let gelu_exact v = 0.5 *. v *. (1. +. tanh (sqrt (2. /. Float.pi) *. (v +. (0.044715 *. v *. v *. v))))

(** Per-row layer normalisation with learned gain/bias vectors. *)
let layernorm ?(eps = 1e-5) t ~gamma ~beta =
  let out = zeros t.rows t.cols in
  for i = 0 to t.rows - 1 do
    let mean = ref 0. in
    for j = 0 to t.cols - 1 do
      mean := !mean +. get t i j
    done;
    let mean = !mean /. float_of_int t.cols in
    let var = ref 0. in
    for j = 0 to t.cols - 1 do
      let d = get t i j -. mean in
      var := !var +. (d *. d)
    done;
    let var = !var /. float_of_int t.cols in
    let denom = sqrt (var +. eps) in
    for j = 0 to t.cols - 1 do
      set out i j ((gamma.(j) *. (get t i j -. mean) /. denom) +. beta.(j))
    done
  done;
  out

(** Mean over all rows, producing a 1 × cols tensor (global pooling). *)
let mean_rows t =
  init 1 t.cols (fun _ j ->
      let s = ref 0. in
      for i = 0 to t.rows - 1 do
        s := !s +. get t i j
      done;
      !s /. float_of_int t.rows)

(** Token down-sampling by averaging consecutive groups of [factor] rows. *)
let pool_rows t factor =
  if t.rows mod factor <> 0 then invalid_arg "Tensor.pool_rows: factor";
  init (t.rows / factor) t.cols (fun i j ->
      let s = ref 0. in
      for k = 0 to factor - 1 do
        s := !s +. get t ((i * factor) + k) j
      done;
      !s /. float_of_int factor)

let argmax_row t i =
  let best = ref 0 in
  for j = 1 to t.cols - 1 do
    if get t i j > get t i !best then best := j
  done;
  !best

(** Seeded Gaussian init (Box–Muller), std scaled for fan-in. *)
let random_gaussian st rows cols ~std =
  init rows cols (fun _ _ ->
      let u1 = Stdlib.max 1e-12 (Random.State.float st 1.) in
      let u2 = Random.State.float st 1. in
      std *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

let frobenius_diff a b =
  let d = sub a b in
  sqrt (Array.fold_left (fun acc v -> acc +. (v *. v)) 0. d.data)
