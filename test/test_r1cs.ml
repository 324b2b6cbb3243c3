module B = Zkvc_num.Bigint

module Make_suite (F : Zkvc_field.Field_intf.S) (Name : sig
  val name : string
end) =
struct
  module L = Zkvc_r1cs.Lc.Make (F)
  module Cs = Zkvc_r1cs.Constraint_system.Make (F)
  module Bld = Zkvc_r1cs.Builder.Make (F)
  module G = Zkvc_r1cs.Gadgets.Make (F)

  let st = Random.State.make [| 3; 5; 8 |]
  let check_bool = Alcotest.(check bool)
  let n s = Name.name ^ " " ^ s

  let finalize_checked b =
    let cs, assignment = Bld.finalize b in
    Cs.check_satisfied cs assignment;
    (cs, assignment)

  let test_lc () =
    let lc1 = L.add (L.term (F.of_int 2) 1) (L.term (F.of_int 3) 2) in
    let lc2 = L.add (L.term (F.of_int 5) 2) (L.constant (F.of_int 7)) in
    let sum = L.add lc1 lc2 in
    let assignment = [| F.one; F.of_int 10; F.of_int 100 |] in
    (* 2*10 + 8*100 + 7 = 827 *)
    Alcotest.(check string) "eval" "827" (F.to_string (L.eval sum assignment));
    check_bool "cancellation" true
      (L.is_zero (L.add (L.term (F.of_int 4) 3) (L.term (F.of_int (-4)) 3)));
    Alcotest.(check int) "terms merged" 3 (L.num_terms sum)

  let test_mul_gadget () =
    let b = Bld.create () in
    let x = Bld.alloc_input b (F.of_int 6) in
    let y = Bld.alloc b (F.of_int 7) in
    let z = G.mul b (L.of_var x) (L.of_var y) in
    Alcotest.(check string) "6*7" "42" (F.to_string (Bld.value b z));
    let cs, assignment = finalize_checked b in
    Alcotest.(check int) "one constraint" 1 (Cs.num_constraints cs);
    Alcotest.(check int) "one input" 1 (Cs.num_inputs cs);
    (* tampering breaks satisfaction *)
    let bad = Array.copy assignment in
    bad.(Array.length bad - 1) <- F.of_int 43;
    check_bool "tamper detected" false (Cs.is_satisfied cs bad)

  let test_wire_permutation () =
    (* interleave aux and input allocations; inputs must come first after
       finalize *)
    let b = Bld.create () in
    let a1 = Bld.alloc b (F.of_int 3) in
    let i1 = Bld.alloc_input b (F.of_int 4) in
    let p = G.mul b (L.of_var a1) (L.of_var i1) in
    ignore p;
    let cs, assignment = finalize_checked b in
    Alcotest.(check int) "inputs" 1 (Cs.num_inputs cs);
    (* canonical order: [1; input=4; aux=3; aux=12] *)
    Alcotest.(check string) "slot1 is input" "4" (F.to_string assignment.(1));
    Alcotest.(check string) "slot2 is first aux" "3" (F.to_string assignment.(2))

  let test_boolean () =
    let b = Bld.create () in
    ignore (G.alloc_boolean b true);
    ignore (G.alloc_boolean b false);
    ignore (finalize_checked b);
    (* a non-boolean value must violate the constraint *)
    let b = Bld.create () in
    let v = Bld.alloc b (F.of_int 2) in
    G.assert_boolean b (L.of_var v);
    let cs, assignment = Bld.finalize b in
    check_bool "2 is not boolean" false (Cs.is_satisfied cs assignment)

  let test_bits () =
    let b = Bld.create () in
    let x = Bld.alloc b (F.of_int 0b1011) in
    let bits = G.bits_of b ~width:4 (L.of_var x) in
    Alcotest.(check int) "width" 4 (List.length bits);
    let bitvals = List.map (fun v -> F.to_string (Bld.value b v)) bits in
    Alcotest.(check (list string)) "lsb first" [ "1"; "1"; "0"; "1" ] bitvals;
    ignore (finalize_checked b);
    (* out-of-range witness rejected eagerly *)
    let b = Bld.create () in
    let x = Bld.alloc b (F.of_int 16) in
    check_bool "eager range error" true
      (match G.bits_of b ~width:4 (L.of_var x) with
       | _ -> false
       | exception Invalid_argument _ -> true)

  let test_le () =
    let b = Bld.create () in
    let x = Bld.alloc b (F.of_int 13) and y = Bld.alloc b (F.of_int 200) in
    G.assert_le b ~width:8 (L.of_var x) (L.of_var y);
    ignore (finalize_checked b)

  let test_is_zero () =
    let b = Bld.create () in
    let z = Bld.alloc b F.zero and nz = Bld.alloc b (F.of_int 9) in
    let f1 = G.is_zero b (L.of_var z) in
    let f0 = G.is_zero b (L.of_var nz) in
    Alcotest.(check string) "flag for zero" "1" (F.to_string (Bld.value b f1));
    Alcotest.(check string) "flag for nonzero" "0" (F.to_string (Bld.value b f0));
    ignore (finalize_checked b)

  let test_select () =
    let b = Bld.create () in
    let c1 = G.alloc_boolean b true and c0 = G.alloc_boolean b false in
    let x = L.constant (F.of_int 11) and y = L.constant (F.of_int 22) in
    let r1 = G.select b (L.of_var c1) x y in
    let r0 = G.select b (L.of_var c0) x y in
    Alcotest.(check string) "true branch" "11" (F.to_string (Bld.value b r1));
    Alcotest.(check string) "false branch" "22" (F.to_string (Bld.value b r0));
    ignore (finalize_checked b)

  let test_max () =
    let b = Bld.create () in
    let xs = List.map (fun v -> L.of_var (Bld.alloc b (F.of_int v))) [ 12; 99; 5; 63 ] in
    let m = G.max_of b ~width:8 xs in
    Alcotest.(check string) "max" "99" (F.to_string (Bld.value b m));
    ignore (finalize_checked b)

  let test_div_by_constant () =
    let b = Bld.create () in
    let x = Bld.alloc b (F.of_int 1234) in
    let q, r = G.div_by_constant b ~q_width:12 (L.of_var x) (B.of_int 100) in
    Alcotest.(check string) "q" "12" (F.to_string (Bld.value b q));
    Alcotest.(check string) "r" "34" (F.to_string (Bld.value b r));
    ignore (finalize_checked b)

  let test_div_rem () =
    let b = Bld.create () in
    let x = Bld.alloc b (F.of_int 1000) and y = Bld.alloc b (F.of_int 30) in
    let q, r = G.div_rem b ~q_width:10 ~r_width:8 (L.of_var x) (L.of_var y) in
    Alcotest.(check string) "q" "33" (F.to_string (Bld.value b q));
    Alcotest.(check string) "r" "10" (F.to_string (Bld.value b r));
    ignore (finalize_checked b)

  let test_product () =
    let b = Bld.create () in
    let xs = List.map (fun v -> L.of_var (Bld.alloc b (F.of_int v))) [ 2; 3; 4; 5 ] in
    let p = G.product b xs in
    Alcotest.(check string) "product" "120" (F.to_string (Bld.eval b p));
    ignore (finalize_checked b)

  let prop_random_linear_circuits =
    QCheck.Test.make ~name:(n "random circuits satisfied") ~count:50
      (QCheck.list_of_size (QCheck.Gen.int_range 1 20) (QCheck.int_range (-100) 100))
      (fun xs ->
        let b = Bld.create () in
        let vars = List.map (fun v -> Bld.alloc b (F.of_int v)) xs in
        (* chain of products and sums *)
        let acc =
          List.fold_left
            (fun acc v -> L.of_var (G.mul b acc (L.add (L.of_var v) (L.constant F.one))))
            (L.constant F.one) vars
        in
        ignore (G.is_zero b acc);
        let cs, assignment = Bld.finalize b in
        Cs.is_satisfied cs assignment)

  (* Regression: [of_terms] must canonicalise at construction — merge
     duplicate wires, drop zero coefficients, sort by wire — like the
     [add]-built equivalent. The original implementation trusted its
     input, so a duplicated wire fed to [map_vars] double-counted. *)
  let prop_of_terms_canonical =
    QCheck.Test.make ~name:(n "of_terms canonicalises") ~count:200
      (QCheck.list_of_size (QCheck.Gen.int_range 0 12)
         (QCheck.pair (QCheck.int_range 0 5) (QCheck.int_range (-3) 3)))
      (fun raw ->
        let terms = List.map (fun (v, c) -> (v, F.of_int c)) raw in
        let lc = L.of_terms terms in
        let naive =
          List.fold_left (fun acc (v, c) -> L.add acc (L.term c v)) L.zero terms
        in
        let assign = Array.init 8 (fun i -> F.of_int (i + 2)) in
        let at l = F.to_string (L.eval l assign) in
        (* same value as the add-built canonical form, and same shape *)
        at lc = at naive
        && L.num_terms lc = L.num_terms naive
        && (let ws = List.map fst (L.terms lc) in
            ws = List.sort_uniq compare ws)
        && List.for_all (fun (_, c) -> not (F.equal c F.zero)) (L.terms lc)
        (* collapsing every wire onto one must merge, never duplicate *)
        && (let collapsed = L.map_vars (fun _ -> 1) lc in
            L.num_terms collapsed <= 1
            && at collapsed = F.to_string (L.eval lc (Array.make 8 assign.(1)))))

  (* [of_terms] is the one-pass replacement for an [add_term] fold when
     synthesis builds long combinations, so the two must give the very same
     canonical terms. Each draw is followed by the negation of a prefix, so
     duplicate wires and fully cancelling terms both occur. *)
  let prop_of_terms_is_fold =
    QCheck.Test.make ~name:(n "of_terms equals the add_term fold") ~count:300
      (QCheck.pair
         (QCheck.list_of_size (QCheck.Gen.int_range 0 16)
            (QCheck.pair (QCheck.int_range 0 7) (QCheck.int_range (-4) 4)))
         QCheck.small_nat)
      (fun (raw, cut) ->
        let terms = List.map (fun (v, c) -> (v, F.of_int c)) raw in
        let negated = List.filteri (fun i _ -> i < cut) terms in
        let terms = terms @ List.map (fun (v, c) -> (v, F.neg c)) negated in
        let folded = List.fold_left (fun acc (v, c) -> L.add_term acc c v) L.zero terms in
        let same (v1, c1) (v2, c2) = v1 = v2 && F.equal c1 c2 in
        let a = L.terms (L.of_terms terms) and b = L.terms folded in
        List.length a = List.length b && List.for_all2 same a b)

  let test_stats () =
    let b = Bld.create () in
    let x = Bld.alloc b (F.of_int 2) in
    ignore (G.mul b (L.of_var x) (L.of_var x));
    let cs, _ = Bld.finalize b in
    let s = Cs.stats cs in
    Alcotest.(check int) "constraints" 1 s.Cs.constraints;
    Alcotest.(check int) "nnz(A)" 1 s.Cs.nonzero_a;
    Alcotest.(check int) "variables" 3 s.Cs.variables

  let suite =
    ( Name.name,
      [ Alcotest.test_case (n "lc") `Quick test_lc;
        Alcotest.test_case (n "mul gadget") `Quick test_mul_gadget;
        Alcotest.test_case (n "wire permutation") `Quick test_wire_permutation;
        Alcotest.test_case (n "boolean") `Quick test_boolean;
        Alcotest.test_case (n "bits") `Quick test_bits;
        Alcotest.test_case (n "le") `Quick test_le;
        Alcotest.test_case (n "is_zero") `Quick test_is_zero;
        Alcotest.test_case (n "select") `Quick test_select;
        Alcotest.test_case (n "max") `Quick test_max;
        Alcotest.test_case (n "div by constant") `Quick test_div_by_constant;
        Alcotest.test_case (n "div rem") `Quick test_div_rem;
        Alcotest.test_case (n "product") `Quick test_product;
        Alcotest.test_case (n "stats") `Quick test_stats;
        QCheck_alcotest.to_alcotest prop_of_terms_canonical;
        QCheck_alcotest.to_alcotest prop_of_terms_is_fold;
        QCheck_alcotest.to_alcotest prop_random_linear_circuits ] )

  let _ = st
end

module Small = Make_suite (Zkvc_field.Fsmall) (struct let name = "fsmall" end)
module Big = Make_suite (Zkvc_field.Fr) (struct let name = "fr" end)

let () = Alcotest.run "zkvc_r1cs" [ Small.suite; Big.suite ]
