(** Sparse linear combinations of R1CS wires. Wire 0 is the constant-one
    wire by convention, so constants are terms on wire 0. *)

module Make (F : Zkvc_field.Field_intf.S) = struct
  type var = int

  (** Association list sorted by variable, no zero coefficients, no
      duplicate variables. *)
  type t = (var * F.t) list

  let zero : t = []

  let constant c : t = if F.is_zero c then [] else [ (0, c) ]

  let term c v : t = if F.is_zero c then [] else [ (v, c) ]

  let of_var v : t = [ (v, F.one) ]

  let rec add (a : t) (b : t) : t =
    match a, b with
    | [], x | x, [] -> x
    | (va, ca) :: ra, (vb, cb) :: rb ->
      if va < vb then (va, ca) :: add ra b
      else if vb < va then (vb, cb) :: add a rb
      else begin
        let c = F.add ca cb in
        if F.is_zero c then add ra rb else (va, c) :: add ra rb
      end

  let scale k (a : t) : t =
    if F.is_zero k then [] else List.map (fun (v, c) -> (v, F.mul k c)) a

  let neg a = scale (F.neg F.one) a

  let sub a b = add a (neg b)

  let add_term a c v = add a (term c v)

  let terms (a : t) = a

  let num_terms (a : t) = List.length a

  let is_zero (a : t) = a = []

  (** Evaluate against a full assignment (index 0 must hold one). *)
  let eval (a : t) assignment =
    List.fold_left (fun acc (v, c) -> F.add acc (F.mul c assignment.(v))) F.zero a

  (** Canonicalise an arbitrary term list: sort by wire, merge duplicate
      wires, drop terms whose (merged) coefficient is zero. Every [t]
      entering the system through this function satisfies the sorted /
      no-zero / no-duplicate invariant the other operations rely on. *)
  let of_terms terms : t =
    let sorted = List.stable_sort (fun (v1, _) (v2, _) -> compare v1 v2) terms in
    let rec merge = function
      | [] -> []
      | [ (v, c) ] -> if F.is_zero c then [] else [ (v, c) ]
      | (v1, c1) :: ((v2, c2) :: rest as tl) ->
        if v1 = v2 then merge ((v1, F.add c1 c2) :: rest)
        else if F.is_zero c1 then merge tl
        else (v1, c1) :: merge tl
    in
    merge sorted

  (* [Builder.finalize]'s canonical permutation is the only caller, and a
     permutation never aliases wires; but an arbitrary renaming can map two
     distinct wires onto one, so the result is re-canonicalised, not merely
     re-sorted. *)
  let map_vars f (a : t) : t = of_terms (List.map (fun (v, c) -> (f v, c)) a)

  let pp fmt (a : t) =
    if a = [] then Format.pp_print_string fmt "0"
    else
      List.iteri
        (fun i (v, c) ->
          if i > 0 then Format.pp_print_string fmt " + ";
          Format.fprintf fmt "%a*w%d" F.pp c v)
        a
end
