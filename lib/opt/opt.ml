(** A keelung-style R1CS optimiser pipeline. See opt.mli for the pass
    catalogue, the canonical-layout invariants and the witness remap
    contract; this file is organised as

    - an affine union-find over wires (the substitution engine shared by
      constant folding and unification),
    - the four passes over a mutable row list,
    - final aux-wire compaction emitting the optimised system, the
      witness map and (with provenance) the rebuilt attribution tree.

    Satisfiability equivalence rests on one invariant: every relation the
    union-find learns ([w = k], [v = a·w + b]) comes from a constraint of
    the current system, and a row is only dropped when — after rewriting
    through those relations — it is an identity. Rewriting preserves each
    row's value at any assignment consistent with the learned relations,
    and [restore_witness] forces exactly those relations, so dropped rows
    hold at restored assignments by construction. A row that folds to a
    false constant equation is kept: the optimised system must reject
    whatever the original rejected. *)

module Obs = Zkvc_obs
module Attrib = Obs.Attrib

module Make (F : Zkvc_field.Field_intf.S) = struct
  module L = Zkvc_r1cs.Lc.Make (F)
  module Cs = Zkvc_r1cs.Constraint_system.Make (F)

  type config =
    { const_fold : bool;
      unify : bool;
      dce : bool;
      cse : bool;
      max_rounds : int }

  let default =
    { const_fold = true; unify = true; dce = true; cse = true; max_rounds = 8 }

  let config_tag c =
    let b v = if v then '1' else '0' in
    Printf.sprintf "cf%c-uf%c-dce%c-cse%c-r%d" (b c.const_fold) (b c.unify)
      (b c.dce) (b c.cse) c.max_rounds

  type provenance =
    { constraint_region : string array;
      wire_region : string array;
      tree : Attrib.t }

  type witness_map =
    { n_orig : int;
      n_opt : int;
      expand : (int * F.t) list array; (* per optimised wire, over original *)
      restore : (int * F.t) list array (* per original wire, over optimised *) }

  let eval_terms terms z =
    List.fold_left (fun acc (v, c) -> F.add acc (F.mul c z.(v))) F.zero terms

  let expand_witness m z =
    if Array.length z <> m.n_orig then
      invalid_arg "Opt.expand_witness: assignment length";
    Array.init m.n_opt (fun i ->
        if i = 0 then F.one else eval_terms m.expand.(i) z)

  let restore_witness m z =
    if Array.length z <> m.n_opt then
      invalid_arg "Opt.restore_witness: assignment length";
    Array.init m.n_orig (fun i ->
        if i = 0 then F.one else eval_terms m.restore.(i) z)

  type delta =
    { d_constraints : int;
      d_wires : int;
      d_nnz : int }

  let zero_delta = { d_constraints = 0; d_wires = 0; d_nnz = 0 }

  let add_delta x y =
    { d_constraints = x.d_constraints + y.d_constraints;
      d_wires = x.d_wires + y.d_wires;
      d_nnz = x.d_nnz + y.d_nnz }

  type pass_delta =
    { pass : string;
      actions : int;
      delta : delta;
      by_region : (string * delta) list }

  type report =
    { passes : pass_delta list;
      rounds : int;
      before : Cs.stats;
      after : Cs.stats }

  let total_delta r =
    List.fold_left (fun acc p -> add_delta acc p.delta) zero_delta r.passes

  let pp_report fmt r =
    Format.fprintf fmt "@[<v>optimiser: %d fixed-point round%s@," r.rounds
      (if r.rounds = 1 then "" else "s");
    List.iter
      (fun p ->
        Format.fprintf fmt "  %-10s actions=%-6d constraints %+d  wires %+d  nnz %+d@,"
          p.pass p.actions (-p.delta.d_constraints) (-p.delta.d_wires)
          (-p.delta.d_nnz))
      r.passes;
    let nnz s = s.Cs.nonzero_a + s.Cs.nonzero_b + s.Cs.nonzero_c in
    Format.fprintf fmt "  total      constraints %d -> %d  variables %d -> %d  nnz %d -> %d@]"
      r.before.Cs.constraints r.after.Cs.constraints r.before.Cs.variables
      r.after.Cs.variables (nnz r.before) (nnz r.after)

  type result =
    { cs : Cs.t;
      map : witness_map;
      report : report;
      regions : Attrib.t option }

  (* ---------- affine union-find ------------------------------------ *)

  (* Relation of a wire to its parent: [w = slope·parent + shift]. Wire 0
     (constant one) is always a root; a class rooted at 0 is a pinned
     constant with value [slope + shift]. Representative preference:
     wire 0 > public input > aux (ties broken toward the lower index), so
     public wires are always class representatives — the canonical-layout
     guard. *)
  type uf =
    { parent : int array;
      slope : F.t array;
      shift : F.t array;
      pref : int array }

  let uf_create n num_inputs =
    { parent = Array.init n (fun i -> i);
      slope = Array.make n F.one;
      shift = Array.make n F.zero;
      pref =
        Array.init n (fun i ->
            if i = 0 then 3 else if i <= num_inputs then 2 else 1) }

  let rec find uf v =
    if v >= Array.length uf.parent then (v, F.one, F.zero)
      (* fresh CSE wire: born after the union-find, never unified *)
    else
    let p = uf.parent.(v) in
    if p = v then (v, F.one, F.zero)
    else begin
      let r, s, k = find uf p in
      let s' = F.mul uf.slope.(v) s in
      let k' = F.add (F.mul uf.slope.(v) k) uf.shift.(v) in
      uf.parent.(v) <- r;
      uf.slope.(v) <- s';
      uf.shift.(v) <- k';
      (r, s', k')
    end

  let is_root uf v = v >= Array.length uf.parent || uf.parent.(v) = v

  (* Outcome of feeding one linear relation to the union-find: [Consumed]
     means the constraint is now implied (and names the wire whose class
     lost its representative, if any); [Kept] means the relation was
     refused — it pins or merges public wires, or it is a contradiction
     that must stay in the system as a falsifier. *)
  type action = Consumed of int option | Kept

  let pin_root uf r value =
    uf.parent.(r) <- 0;
    uf.slope.(r) <- F.zero;
    uf.shift.(r) <- value

  (* [pin uf v value] learns [v = value]. *)
  let pin uf v value =
    let r, s, k = find uf v in
    if r = 0 then
      if F.equal (F.add s k) value then Consumed None else Kept
    else if uf.pref.(r) >= 2 then Kept
    else begin
      pin_root uf r (F.div (F.sub value k) s);
      Consumed (Some r)
    end

  (* [merge uf v1 v2 a b] learns [v1 = a·v2 + b] ([a ≠ 0]). *)
  let merge uf v1 v2 a bk =
    let r1, s1, k1 = find uf v1 in
    let r2, s2, k2 = find uf v2 in
    if r1 = r2 then begin
      (* (s1 − a·s2)·r = a·k2 + b − k1 *)
      let cr = F.sub s1 (F.mul a s2) in
      let ck = F.sub (F.add (F.mul a k2) bk) k1 in
      if F.is_zero cr then if F.is_zero ck then Consumed None else Kept
      else if r1 = 0 then
        if F.equal cr ck then Consumed None else Kept
      else if uf.pref.(r1) >= 2 then Kept
      else begin
        pin_root uf r1 (F.div ck cr);
        Consumed (Some r1)
      end
    end
    else if uf.pref.(r1) >= 2 && uf.pref.(r2) >= 2 then Kept
    else begin
      (* s1·r1 + k1 = a·s2·r2 + a·k2 + b, so r1 = ca·r2 + cb *)
      let ca = F.div (F.mul a s2) s1 in
      let cb = F.div (F.sub (F.add (F.mul a k2) bk) k1) s1 in
      let child_is_r1 =
        if uf.pref.(r1) <> uf.pref.(r2) then uf.pref.(r1) < uf.pref.(r2)
        else r1 > r2
      in
      if child_is_r1 then begin
        uf.parent.(r1) <- r2;
        uf.slope.(r1) <- ca;
        uf.shift.(r1) <- cb;
        Consumed (Some r1)
      end
      else begin
        uf.parent.(r2) <- r1;
        uf.slope.(r2) <- F.inv ca;
        uf.shift.(r2) <- F.neg (F.div cb ca);
        Consumed (Some r2)
      end
    end

  (* Rewrite an LC through the union-find. Physically equal result when
     nothing changed, so callers can detect progress with [==]. *)
  let subst_lc uf lc =
    let changed = ref false in
    let mapped =
      List.concat_map
        (fun (v, c) ->
          let r, s, k = find uf v in
          if r = v && F.is_one s && F.is_zero k then [ (v, c) ]
          else begin
            changed := true;
            if F.is_zero k then [ (r, F.mul c s) ]
            else [ (r, F.mul c s); (0, F.mul c k) ]
          end)
        (L.terms lc)
    in
    if !changed then L.of_terms mapped else lc

  (* ---------- pass machinery --------------------------------------- *)

  type row =
    { ra : L.t;
      rb : L.t;
      rc : L.t;
      rlabel : string;
      rregion : string (* owning region path, "" when unattributed *) }

  let row_nnz r = L.num_terms r.ra + L.num_terms r.rb + L.num_terms r.rc

  type st =
    { uf : uf;
      mutable rows : row list; (* in constraint order *)
      wire_region : string array; (* original canonical wire -> path *)
      n_orig : int;
      num_inputs : int;
      mutable next_wire : int; (* fresh CSE wires start at n_orig *)
      mutable cse_defs : (int * L.t * string) list; (* reversed *)
      debits : (string * string, delta ref) Hashtbl.t; (* (pass, region) *)
      actions : (string, int ref) Hashtbl.t }

  let debit st pass region d =
    if d <> zero_delta then begin
      match Hashtbl.find_opt st.debits (pass, region) with
      | Some r -> r := add_delta !r d
      | None -> Hashtbl.add st.debits (pass, region) (ref d)
    end

  let act st pass =
    match Hashtbl.find_opt st.actions pass with
    | Some r -> incr r
    | None -> Hashtbl.add st.actions pass (ref 1)

  (* Rewrite every row through the union-find, charging nonzero deltas to
     each row's owning region under [pass]. Returns whether any row
     changed. *)
  let substitute st pass =
    let changed = ref false in
    st.rows <-
      List.map
        (fun r ->
          let ra = subst_lc st.uf r.ra in
          let rb = subst_lc st.uf r.rb in
          let rc = subst_lc st.uf r.rc in
          if ra == r.ra && rb == r.rb && rc == r.rc then r
          else begin
            changed := true;
            let r' = { r with ra; rb; rc } in
            debit st pass r.rregion
              { zero_delta with d_nnz = row_nnz r - row_nnz r' };
            r'
          end)
        st.rows;
    !changed

  let as_const lc =
    match L.terms lc with
    | [] -> Some F.zero
    | [ (0, k) ] -> Some k
    | _ -> None

  (* The linear residual [l = 0] of a row whose A or B side is constant
     ([ka·B − C] resp. [kb·A − C]); [None] for genuinely multiplicative
     rows. *)
  let linear_residual r =
    match as_const r.ra with
    | Some ka -> Some (L.sub (L.scale ka r.rb) r.rc)
    | None -> (
      match as_const r.rb with
      | Some kb -> Some (L.sub (L.scale kb r.ra) r.rc)
      | None -> None)

  (* Split a linear residual into its constant part and its wire terms. *)
  let split_linear l =
    let k0 = ref F.zero in
    let wires =
      List.filter
        (fun (v, c) -> if v = 0 then (k0 := c; false) else true)
        (L.terms l)
    in
    (!k0, wires)

  let drop_row st pass r ~wire =
    act st pass;
    debit st pass r.rregion
      { d_constraints = 1; d_wires = 0; d_nnz = row_nnz r };
    match wire with
    | None -> ()
    | Some w ->
      debit st pass st.wire_region.(w) { zero_delta with d_wires = 1 }

  (* Pass 1: constant folding — rows whose residual has exactly one wire
     term pin that wire. *)
  let pass_const_fold st =
    let changed = substitute st "const_fold" in
    let progressed = ref changed in
    st.rows <-
      List.filter
        (fun r ->
          match linear_residual r with
          | Some l -> (
            match split_linear l with
            | k0, [ (v, c) ] -> (
              match pin st.uf v (F.neg (F.div k0 c)) with
              | Consumed wire ->
                progressed := true;
                drop_row st "const_fold" r ~wire;
                false
              | Kept -> true)
            | _ -> true)
          | None -> true)
        st.rows;
    !progressed

  (* Pass 2: union-find unification — rows whose residual has exactly two
     wire terms merge the two classes. *)
  let pass_unify st =
    let changed = substitute st "unify" in
    let progressed = ref changed in
    st.rows <-
      List.filter
        (fun r ->
          match linear_residual r with
          | Some l -> (
            match split_linear l with
            | k0, [ (v1, c1); (v2, c2) ] -> (
              (* c1·v1 + c2·v2 + k0 = 0  ⇒  v1 = (−c2/c1)·v2 − k0/c1 *)
              match
                merge st.uf v1 v2
                  (F.neg (F.div c2 c1))
                  (F.neg (F.div k0 c1))
              with
              | Consumed wire ->
                progressed := true;
                drop_row st "unify" r ~wire;
                false
              | Kept -> true)
            | _ -> true)
          | None -> true)
        st.rows;
    !progressed

  (* Pass 3: dead-constraint elimination — rows whose residual is the
     empty combination are identities. A residual that is a non-zero
     constant is a falsifier and is deliberately kept. *)
  let pass_dce st =
    let changed = substitute st "dce" in
    let progressed = ref changed in
    st.rows <-
      List.filter
        (fun r ->
          match linear_residual r with
          | Some l when L.is_zero l ->
            progressed := true;
            drop_row st "dce" r ~wire:None;
            false
          | _ -> true)
        st.rows;
    !progressed

  (* Pass 4: common linear-subexpression sharing. LCs are keyed up to a
     scalar multiple (scaled so the leading coefficient is one); a key
     seen [m] times with [t] terms is shared through a fresh wire only
     when the saving  m·t − (m + t + 2)  is positive (the defining row
     costs t + 2 nonzeros and the m uses one each). *)
  let pass_cse st =
    ignore (substitute st "cse");
    let rows = Array.of_list st.rows in
    let occs : (string, (int * [ `A | `B | `C ] * F.t * string) list ref) Hashtbl.t =
      Hashtbl.create 64
    in
    let order = ref [] in
    let canon lc =
      match L.terms lc with
      | [] | [ _ ] -> None
      | (_, c1) :: _ ->
        let scaled = L.scale (F.inv c1) lc in
        let key =
          String.concat ","
            (List.map
               (fun (v, c) -> string_of_int v ^ ":" ^ F.to_string c)
               (L.terms scaled))
        in
        Some (key, scaled, c1)
    in
    Array.iteri
      (fun i r ->
        List.iter
          (fun (slot, lc) ->
            match canon lc with
            | None -> ()
            | Some (key, scaled, scale) -> (
              let occ = (i, slot, scale, r.rregion) in
              match Hashtbl.find_opt occs key with
              | Some l -> l := occ :: !l
              | None ->
                Hashtbl.add occs key (ref [ occ ]);
                order := (key, scaled) :: !order))
          [ (`A, r.ra); (`B, r.rb); (`C, r.rc) ])
      rows;
    let added = ref [] in
    List.iter
      (fun (key, scaled) ->
        let os = List.rev !(Hashtbl.find occs key) in
        let m = List.length os in
        let t = L.num_terms scaled in
        if m >= 2 && (m * t) - (m + t + 2) > 0 then begin
          let u = st.next_wire in
          st.next_wire <- u + 1;
          let _, _, _, region = List.hd os in
          st.cse_defs <- (u, scaled, region) :: st.cse_defs;
          act st "cse";
          List.iter
            (fun (i, slot, scale, oregion) ->
              let r = rows.(i) in
              let rep = L.term scale u in
              rows.(i) <-
                (match slot with
                | `A -> { r with ra = rep }
                | `B -> { r with rb = rep }
                | `C -> { r with rc = rep });
              debit st "cse" oregion { zero_delta with d_nnz = t - 1 })
            os;
          (* the defining row  scaled · 1 = u  adds a constraint, a wire
             and t + 2 nonzeros, all charged (negatively) to the region of
             the first occurrence *)
          added :=
            { ra = scaled;
              rb = L.constant F.one;
              rc = L.of_var u;
              rlabel = "cse";
              rregion = region }
            :: !added;
          debit st "cse" region
            { d_constraints = -1; d_wires = -1; d_nnz = -(t + 2) }
        end)
      (List.rev !order);
    st.rows <- Array.to_list rows @ List.rev !added

  (* ---------- compaction and output -------------------------------- *)

  let stats_of ~num_inputs ~num_aux rows =
    let a = ref 0 and b = ref 0 and c = ref 0 in
    List.iter
      (fun r ->
        a := !a + L.num_terms r.ra;
        b := !b + L.num_terms r.rb;
        c := !c + L.num_terms r.rc)
      rows;
    { Cs.constraints = List.length rows;
      variables = 1 + num_inputs + num_aux;
      nonzero_a = !a;
      nonzero_b = !b;
      nonzero_c = !c }

  let optimize ?(config = default) ?provenance (cs : Cs.t) =
    let n_orig = Cs.num_vars cs in
    let num_inputs = Cs.num_inputs cs in
    (match provenance with
    | Some p ->
      if
        Array.length p.constraint_region <> Cs.num_constraints cs
        || Array.length p.wire_region <> n_orig
      then invalid_arg "Opt.optimize: provenance arrays do not match system"
    | None -> ());
    let region_of_constraint i =
      match provenance with Some p -> p.constraint_region.(i) | None -> ""
    in
    let wire_region =
      match provenance with
      | Some p -> p.wire_region
      | None -> Array.make n_orig ""
    in
    let st =
      { uf = uf_create n_orig num_inputs;
        rows =
          Array.to_list
            (Array.mapi
               (fun i { Cs.a; b; c; label } ->
                 { ra = a; rb = b; rc = c; rlabel = label;
                   rregion = region_of_constraint i })
               cs.Cs.constraints);
        wire_region;
        n_orig;
        num_inputs;
        next_wire = n_orig;
        cse_defs = [];
        debits = Hashtbl.create 64;
        actions = Hashtbl.create 8 }
    in
    let before =
      stats_of ~num_inputs ~num_aux:(Cs.num_aux cs) st.rows
    in
    let span name f = Obs.Span.with_span ("opt." ^ name) f in
    (* fixed point of const_fold / unify / dce *)
    let rounds = ref 0 in
    let continue_ = ref (config.const_fold || config.unify || config.dce) in
    while !continue_ && !rounds < config.max_rounds do
      incr rounds;
      let c1 =
        if config.const_fold then span "const_fold" (fun () -> pass_const_fold st)
        else false
      in
      let c2 =
        if config.unify then span "unify" (fun () -> pass_unify st) else false
      in
      let c3 = if config.dce then span "dce" (fun () -> pass_dce st) else false in
      continue_ := c1 || c2 || c3
    done;
    if config.cse then span "cse" (fun () -> pass_cse st);
    (* late relations may not have reached every row when the loop hit
       max_rounds; one final rewrite guarantees rows mention roots only *)
    ignore (substitute st "dce");
    (* compaction: wire 0 and publics keep their indices; referenced aux
       roots are packed in order, then CSE wires; unreferenced aux roots
       are dead *)
    let used = Array.make n_orig false in
    let mark lc =
      (* CSE wires (>= n_orig) are used by construction *)
      List.iter (fun (v, _) -> if v < n_orig then used.(v) <- true) (L.terms lc)
    in
    List.iter
      (fun r ->
        mark r.ra;
        mark r.rb;
        mark r.rc)
      st.rows;
    List.iter (fun (_, lc, _) -> mark lc) (List.rev st.cse_defs);
    let old_to_new = Array.make st.next_wire (-1) in
    old_to_new.(0) <- 0;
    for v = 1 to num_inputs do
      old_to_new.(v) <- v
    done;
    let next = ref (num_inputs + 1) in
    for v = num_inputs + 1 to n_orig - 1 do
      if is_root st.uf v then
        if used.(v) then begin
          old_to_new.(v) <- !next;
          incr next
        end
        else begin
          (* dead: no surviving row constrains it *)
          act st "dce";
          debit st "dce" wire_region.(v) { zero_delta with d_wires = 1 }
        end
    done;
    let cse_defs = List.rev st.cse_defs in
    List.iter
      (fun (u, _, _) ->
        old_to_new.(u) <- !next;
        incr next)
      cse_defs;
    let n_opt = !next in
    let num_aux_new = n_opt - 1 - num_inputs in
    let remap lc = L.map_vars (fun v -> old_to_new.(v)) lc in
    let final_rows =
      List.map
        (fun r -> { r with ra = remap r.ra; rb = remap r.rb; rc = remap r.rc })
        st.rows
    in
    let constraints =
      Array.of_list
        (List.map
           (fun r -> { Cs.a = r.ra; b = r.rb; c = r.rc; label = r.rlabel })
           final_rows)
    in
    let optimized =
      { Cs.num_inputs; num_aux = num_aux_new; constraints }
    in
    (* witness map *)
    let expand = Array.make n_opt [] in
    for v = 1 to n_orig - 1 do
      let nv = old_to_new.(v) in
      if nv >= 0 && is_root st.uf v then expand.(nv) <- [ (v, F.one) ]
    done;
    List.iter
      (fun (u, lc, _) -> expand.(old_to_new.(u)) <- L.terms lc)
      cse_defs;
    let restore = Array.make n_orig [] in
    for v = 1 to n_orig - 1 do
      let r, s, k = find st.uf v in
      restore.(v) <-
        (if r = 0 then L.terms (L.constant (F.add s k))
         else
           let nr = old_to_new.(r) in
           if nr < 0 then L.terms (L.constant k)
           else L.terms (L.of_terms [ (nr, s); (0, k) ]))
    done;
    let map = { n_orig; n_opt; expand; restore } in
    let after = stats_of ~num_inputs ~num_aux:num_aux_new final_rows in
    (* report *)
    let pass_report name =
      let acc = ref zero_delta and by = ref [] in
      Hashtbl.iter
        (fun (p, region) d ->
          if p = name then begin
            acc := add_delta !acc !d;
            by := (region, !d) :: !by
          end)
        st.debits;
      let by_region =
        List.sort
          (fun (r1, d1) (r2, d2) ->
            match compare d2.d_nnz d1.d_nnz with
            | 0 -> compare r1 r2
            | c -> c)
          !by
      in
      { pass = name;
        actions =
          (match Hashtbl.find_opt st.actions name with
          | Some r -> !r
          | None -> 0);
        delta = !acc;
        by_region }
    in
    let report =
      { passes = List.map pass_report [ "const_fold"; "unify"; "dce"; "cse" ];
        rounds = !rounds;
        before;
        after }
    in
    let td = total_delta report in
    let module M = Obs.Metrics in
    M.set (M.gauge "opt.constraints_removed") (float_of_int td.d_constraints);
    M.set (M.gauge "opt.wires_removed") (float_of_int td.d_wires);
    M.set (M.gauge "opt.nnz_removed") (float_of_int td.d_nnz);
    M.set (M.gauge "opt.rounds") (float_of_int !rounds);
    (* rebuilt attribution tree: original structure and synthesis times,
       optimised counts *)
    let regions =
      match provenance with
      | None -> None
      | Some p ->
        let tbl : (string, Attrib.counts ref) Hashtbl.t = Hashtbl.create 64 in
        let bump path f =
          let c =
            match Hashtbl.find_opt tbl path with
            | Some r -> r
            | None ->
              let r = ref Attrib.zero_counts in
              Hashtbl.add tbl path r;
              r
          in
          c := f !c
        in
        List.iter
          (fun r ->
            bump r.rregion (fun c ->
                { c with
                  Attrib.constraints = c.Attrib.constraints + 1;
                  nnz_a = c.Attrib.nnz_a + L.num_terms r.ra;
                  nnz_b = c.Attrib.nnz_b + L.num_terms r.rb;
                  nnz_c = c.Attrib.nnz_c + L.num_terms r.rc }))
          final_rows;
        for v = 1 to n_orig - 1 do
          if old_to_new.(v) >= 0 && v > num_inputs && is_root st.uf v then
            bump wire_region.(v) (fun c ->
                { c with Attrib.variables = c.Attrib.variables + 1 })
        done;
        (* public inputs stay allocated to their original regions *)
        for v = 1 to num_inputs do
          bump wire_region.(v) (fun c ->
              { c with Attrib.variables = c.Attrib.variables + 1 })
        done;
        List.iter
          (fun (_, _, region) ->
            bump region (fun c ->
                { c with Attrib.variables = c.Attrib.variables + 1 }))
          cse_defs;
        let rec rebuild path (node : Attrib.t) =
          let self =
            match Hashtbl.find_opt tbl path with
            | Some r -> !r
            | None -> Attrib.zero_counts
          in
          let child_path child =
            if path = "" then child.Attrib.name
            else path ^ "/" ^ child.Attrib.name
          in
          Attrib.make ~witness_s:node.Attrib.witness_s ~name:node.Attrib.name
            ~self
            (List.map (fun ch -> rebuild (child_path ch) ch) node.Attrib.children)
        in
        Some (rebuild "" p.tree)
    in
    { cs = optimized; map; report; regions }
end
