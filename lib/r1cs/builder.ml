(** Mutable circuit builder. Gadgets allocate wires together with their
    values (single-pass synthesis); [finalize] permutes wires into the
    canonical input-first layout of {!Constraint_system} and returns the
    compiled system plus the full assignment.

    The circuit *shape* produced by all gadgets in this repository depends
    only on structural parameters (matrix sizes, bit widths), never on the
    witness values, so a builder run with dummy values yields the same
    compiled system — this is what the Groth16 trusted setup uses.

    Provenance: gadgets may wrap synthesis in [in_region] scopes; every
    constraint and wire produced while a region is active is attributed to
    it, and [region_tree] folds the ledger into a {!Zkvc_obs.Attrib.t}.
    Attribution happens at emission time against the builder's own wire
    numbering, so it is untouched by the canonical permutation [finalize]
    applies. *)

module Attrib = Zkvc_obs.Attrib

module Make (F : Zkvc_field.Field_intf.S) = struct
  module L = Lc.Make (F)
  module Cs = Constraint_system.Make (F)

  type kind = Input | Aux

  (* One provenance region. [r_incl_s] is inclusive wall time accumulated
     over every visit; self time is derived at export (inclusive minus
     children, clamped at zero against clock jitter). Children are interned
     by name, so re-entering [in_region b "matmul" f] accumulates into the
     same node. *)
  type region =
    { r_name : string;
      mutable r_constraints : int;
      mutable r_variables : int;
      mutable r_nnz_a : int;
      mutable r_nnz_b : int;
      mutable r_nnz_c : int;
      mutable r_incl_s : float;
      mutable r_children : int list (* reversed creation order *) }

  type t =
    { mutable values : F.t array; (* growable; slot 0 = one *)
      mutable kinds : kind array;
      mutable n : int; (* wires allocated, including wire 0 *)
      mutable constraints : Cs.constr list; (* reversed *)
      regions : (int, region) Hashtbl.t; (* id 0 = root (unattributed) *)
      mutable nregions : int;
      mutable cur_region : int }

  let fresh_region name =
    { r_name = name;
      r_constraints = 0;
      r_variables = 0;
      r_nnz_a = 0;
      r_nnz_b = 0;
      r_nnz_c = 0;
      r_incl_s = 0.;
      r_children = [] }

  let create () =
    let regions = Hashtbl.create 16 in
    Hashtbl.add regions 0 (fresh_region "all");
    { values = Array.make 16 F.zero;
      kinds = Array.make 16 Aux;
      n = 1;
      constraints = [];
      regions;
      nregions = 1;
      cur_region = 0 }

  let grow b =
    if b.n = Array.length b.values then begin
      let values = Array.make (2 * b.n) F.zero in
      let kinds = Array.make (2 * b.n) Aux in
      Array.blit b.values 0 values 0 b.n;
      Array.blit b.kinds 0 kinds 0 b.n;
      b.values <- values;
      b.kinds <- kinds
    end

  let region b id = Hashtbl.find b.regions id

  let alloc_kind b kind value =
    grow b;
    let v = b.n in
    b.values.(v) <- value;
    b.kinds.(v) <- kind;
    b.n <- b.n + 1;
    let r = region b b.cur_region in
    r.r_variables <- r.r_variables + 1;
    v

  (** Allocate a private witness wire holding [value]. *)
  let alloc b value = alloc_kind b Aux value

  (** Allocate a public input wire holding [value]. *)
  let alloc_input b value = alloc_kind b Input value

  let value b v = if v = 0 then F.one else b.values.(v)

  let eval b lc =
    List.fold_left (fun acc (v, c) -> F.add acc (F.mul c (value b v))) F.zero (L.terms lc)

  (** Enforce [a * b = c]. *)
  let enforce b ?(label = "") a bb c =
    b.constraints <- { Cs.a; b = bb; c; label } :: b.constraints;
    let r = region b b.cur_region in
    r.r_constraints <- r.r_constraints + 1;
    r.r_nnz_a <- r.r_nnz_a + L.num_terms a;
    r.r_nnz_b <- r.r_nnz_b + L.num_terms bb;
    r.r_nnz_c <- r.r_nnz_c + L.num_terms c

  let num_constraints b = List.length b.constraints

  (* Find-or-create the child of [b.cur_region] named [seg] and descend
     into it. Child lists are short (tens at most), so linear interning is
     fine. *)
  let descend b seg =
    let parent = region b b.cur_region in
    let existing =
      List.find_opt (fun id -> (region b id).r_name = seg) parent.r_children
    in
    let id =
      match existing with
      | Some id -> id
      | None ->
        let id = b.nregions in
        b.nregions <- id + 1;
        Hashtbl.add b.regions id (fresh_region seg);
        parent.r_children <- id :: parent.r_children;
        id
    in
    b.cur_region <- id

  (** [in_region b "attn/qk_matmul" f] runs [f ()] with a (nested, slash-
      separated) region pushed: constraints and wires it emits are
      attributed to the innermost segment, and its wall time accumulates
      on that segment. Re-entering an existing path accumulates rather
      than duplicating. Exception-safe; always restores the enclosing
      region. *)
  let in_region b name f =
    let segs = String.split_on_char '/' name |> List.filter (fun s -> s <> "") in
    let saved = b.cur_region in
    List.iter (descend b) segs;
    let entered = b.cur_region in
    let t0 = Zkvc_obs.Span.now () in
    Fun.protect
      ~finally:(fun () ->
        let r = region b entered in
        r.r_incl_s <- r.r_incl_s +. (Zkvc_obs.Span.now () -. t0);
        b.cur_region <- saved)
      f

  (** Fold the provenance ledger into an {!Attrib.t}. Counts are exact;
      per-node witness time is the region's inclusive time minus its
      children's (clamped at zero), so times also sum bottom-up. Safe to
      call at any point, including after [finalize] — attribution is by
      emission, not by wire index, so the canonical permutation does not
      disturb it. *)
  let region_tree b =
    let rec build id =
      let r = region b id in
      let children = List.rev_map build r.r_children in
      let child_incl =
        List.fold_left (fun acc cid -> acc +. (region b cid).r_incl_s) 0. r.r_children
      in
      let witness_s = Float.max 0. (r.r_incl_s -. child_incl) in
      Attrib.make ~witness_s ~name:r.r_name
        ~self:
          { Attrib.constraints = r.r_constraints;
            variables = r.r_variables;
            nnz_a = r.r_nnz_a;
            nnz_b = r.r_nnz_b;
            nnz_c = r.r_nnz_c }
        children
    in
    (* root inclusive time was never measured (no [in_region] wraps the
       whole build); leave its self time at the accumulated value. *)
    build 0

  (** Compile: wires are permuted to [one; inputs...; aux...] preserving
      relative allocation order within each class. *)
  let finalize b =
    let num_inputs = ref 0 and num_aux = ref 0 in
    for i = 1 to b.n - 1 do
      match b.kinds.(i) with
      | Input -> incr num_inputs
      | Aux -> incr num_aux
    done;
    let perm = Array.make b.n 0 in
    let next_input = ref 1 and next_aux = ref (1 + !num_inputs) in
    for i = 1 to b.n - 1 do
      match b.kinds.(i) with
      | Input ->
        perm.(i) <- !next_input;
        incr next_input
      | Aux ->
        perm.(i) <- !next_aux;
        incr next_aux
    done;
    let remap lc = L.map_vars (fun v -> perm.(v)) lc in
    let constraints =
      List.rev_map
        (fun { Cs.a; b = bb; c; label } -> { Cs.a = remap a; b = remap bb; c = remap c; label })
        b.constraints
      |> Array.of_list
    in
    let assignment = Array.make b.n F.one in
    for i = 1 to b.n - 1 do
      assignment.(perm.(i)) <- b.values.(i)
    done;
    ({ Cs.num_inputs = !num_inputs; num_aux = !num_aux; constraints }, assignment)

  (** [finalize] plus the provenance tree — the compiled system, full
      assignment and region attribution in one step. *)
  let finalize_attributed b =
    let cs, assignment = finalize b in
    (cs, assignment, region_tree b)

  (** Public-input vector in canonical order (excluding the one wire),
      as the verifier would receive it. *)
  let public_inputs b =
    let rec collect i acc =
      if i >= b.n then List.rev acc
      else collect (i + 1) (match b.kinds.(i) with Input -> b.values.(i) :: acc | Aux -> acc)
    in
    collect 1 []
end
