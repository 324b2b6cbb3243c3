(** Sparse matrices over a field, viewed as multilinear extensions
    Ã(x, y) on {0,1}^µ × {0,1}^ν — the representation Spartan's two
    sumcheck phases work with. *)

module Make (F : Zkvc_field.Field_intf.S) = struct
  type entry = { row : int; col : int; value : F.t }

  type t =
    { mu : int; (* log2 rows *)
      nu : int; (* log2 cols *)
      entries : entry list }

  let create ~mu ~nu entries =
    List.iter
      (fun { row; col; _ } ->
        if row < 0 || row >= 1 lsl mu || col < 0 || col >= 1 lsl nu then
          invalid_arg "Sparse_matrix.create: entry out of range")
      entries;
    { mu; nu; entries }

  (** [mul_vec t z] is the length-2^µ vector [M·z]. *)
  let mul_vec t z =
    if Array.length z <> 1 lsl t.nu then invalid_arg "Sparse_matrix.mul_vec: length";
    let out = Array.make (1 lsl t.mu) F.zero in
    List.iter
      (fun { row; col; value } -> out.(row) <- F.add out.(row) (F.mul value z.(col)))
      t.entries;
    out

  (** [fold_rows t ~scale w acc] adds [scale·(wᵀ·M)] into [acc]. The
      scaled weight scale·w.(row) is taken once per run of entries in
      one row (entries come grouped by row), so rows without entries
      cost nothing. *)
  let fold_rows t ~scale w acc =
    if Array.length w <> 1 lsl t.mu || Array.length acc <> 1 lsl t.nu then
      invalid_arg "Sparse_matrix.fold_rows: length";
    let last = ref (-1) and weight = ref F.zero in
    List.iter
      (fun { row; col; value } ->
        if row <> !last then begin
          last := row;
          weight := F.mul scale w.(row)
        end;
        acc.(col) <- F.add acc.(col) (F.mul value !weight))
      t.entries

  (** Evaluate the MLE at (rx, ry) from the tables [row_w = eq̃(rx,·)]
      (length 2^µ) and [col_w = eq̃(ry,·)] (length 2^ν):
      Ã(rx, ry) = Σ entries value·row_w.(row)·col_w.(col), two
      multiplications per nonzero. This is the O(nnz) verifier of
      SpartanNIZK. *)
  let eval_tables t ~row_w ~col_w =
    if Array.length row_w <> 1 lsl t.mu || Array.length col_w <> 1 lsl t.nu then
      invalid_arg "Sparse_matrix.eval_tables: length";
    List.fold_left
      (fun acc { row; col; value } -> F.add acc (F.mul (F.mul value row_w.(row)) col_w.(col)))
      F.zero t.entries
end
