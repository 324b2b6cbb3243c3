module Fq = Zkvc_field.Fq
module Fr = Zkvc_field.Fr
module B = Zkvc_num.Bigint
module Fq2 = Zkvc_curve.Fq2
module Fq6 = Zkvc_curve.Fq6
module Fq12 = Zkvc_curve.Fq12
module G1 = Zkvc_curve.G1
module G2 = Zkvc_curve.G2
module Pairing = Zkvc_curve.Pairing
module Params = Zkvc_curve.Bn_params

let st = Random.State.make [| 2024; 7 |]
let check_bool = Alcotest.(check bool)

(* ---------------- extension tower ---------------- *)

(* Fq6 product straight from the definition: nine Fq2 products, v³ = ξ. *)
let fq6_schoolbook (a : Fq6.t) (b : Fq6.t) =
  let m = Fq2.mul and ( + ) = Fq2.add in
  Fq6.make
    (m a.c0 b.c0 + m Fq2.xi (m a.c1 b.c2 + m a.c2 b.c1))
    (m a.c0 b.c1 + m a.c1 b.c0 + m Fq2.xi (m a.c2 b.c2))
    (m a.c0 b.c2 + m a.c1 b.c1 + m a.c2 b.c0)

let tower_tests =
  let t name f = Alcotest.test_case name `Quick f in
  [ t "fq2 field laws" (fun () ->
        for _ = 1 to 50 do
          let a = Fq2.random st and b = Fq2.random st and c = Fq2.random st in
          check_bool "assoc" true Fq2.(equal (mul (mul a b) c) (mul a (mul b c)));
          check_bool "distrib" true Fq2.(equal (mul a (add b c)) (add (mul a b) (mul a c)));
          check_bool "sqr" true Fq2.(equal (sqr a) (mul a a));
          if not (Fq2.is_zero a) then
            check_bool "inv" true Fq2.(is_one (mul a (inv a)))
        done);
    t "fq2 u^2 = -1" (fun () ->
        let u = Fq2.make Fq.zero Fq.one in
        check_bool "u²" true (Fq2.equal (Fq2.sqr u) (Fq2.neg Fq2.one)));
    t "fq2 sqrt" (fun () ->
        for _ = 1 to 30 do
          let a = Fq2.random st in
          let sq = Fq2.sqr a in
          match Fq2.sqrt sq with
          | None -> Alcotest.fail "square must have a root"
          | Some r -> check_bool "root" true Fq2.(equal (sqr r) sq)
        done);
    t "fq6 field laws" (fun () ->
        for _ = 1 to 30 do
          let a = Fq6.random st and b = Fq6.random st and c = Fq6.random st in
          check_bool "assoc" true Fq6.(equal (mul (mul a b) c) (mul a (mul b c)));
          check_bool "distrib" true Fq6.(equal (mul a (add b c)) (add (mul a b) (mul a c)));
          if not (Fq6.is_zero a) then check_bool "inv" true Fq6.(is_one (mul a (inv a)))
        done);
    t "fq6 v^3 = xi" (fun () ->
        let v = Fq6.make Fq2.zero Fq2.one Fq2.zero in
        check_bool "v³" true
          (Fq6.equal (Fq6.mul v (Fq6.mul v v)) (Fq6.of_fq2 Fq2.xi)));
    t "fq6 mul_by_v" (fun () ->
        for _ = 1 to 20 do
          let a = Fq6.random st in
          let v = Fq6.make Fq2.zero Fq2.one Fq2.zero in
          check_bool "shift" true (Fq6.equal (Fq6.mul_by_v a) (Fq6.mul a v))
        done);
    t "fq12 field laws" (fun () ->
        for _ = 1 to 20 do
          let a = Fq12.random st and b = Fq12.random st and c = Fq12.random st in
          check_bool "assoc" true Fq12.(equal (mul (mul a b) c) (mul a (mul b c)));
          check_bool "sqr" true Fq12.(equal (sqr a) (mul a a));
          if not (Fq12.is_zero a) then check_bool "inv" true Fq12.(is_one (mul a (inv a)))
        done);
    t "fq12 w^6 = xi" (fun () ->
        let w = Fq12.make Fq6.zero Fq6.one in
        let w6 = Fq12.sqr (Fq12.mul w (Fq12.sqr w)) in
        let xi12 = Fq12.make (Fq6.of_fq2 Fq2.xi) Fq6.zero in
        check_bool "w⁶ = ξ" true (Fq12.equal w6 xi12));
    t "fq12 twist embeddings" (fun () ->
        (* of_twist_x x = x·w², of_twist_y y = y·w³ *)
        let w = Fq12.make Fq6.zero Fq6.one in
        let x = Fq2.random st and y = Fq2.random st in
        let embed2 v = Fq12.make (Fq6.of_fq2 v) Fq6.zero in
        check_bool "x·w²" true
          (Fq12.equal (Fq12.of_twist_x x) (Fq12.mul (embed2 x) (Fq12.sqr w)));
        check_bool "y·w³" true
          (Fq12.equal (Fq12.of_twist_y y) (Fq12.mul (embed2 y) (Fq12.mul w (Fq12.sqr w)))));
    t "fq12 pow homomorphism" (fun () ->
        let a = Fq12.random st in
        let e1 = B.of_int 12345 and e2 = B.of_int 678 in
        check_bool "a^(e1+e2)" true
          (Fq12.equal (Fq12.pow a (B.add e1 e2)) (Fq12.mul (Fq12.pow a e1) (Fq12.pow a e2))));
    t "fq2 mul_by_xi" (fun () ->
        for _ = 1 to 20 do
          let a = Fq2.random st in
          check_bool "ξ·a" true (Fq2.equal (Fq2.mul_by_xi a) (Fq2.mul Fq2.xi a))
        done);
    t "fq6 karatsuba, squaring and sparse product match schoolbook" (fun () ->
        for _ = 1 to 30 do
          let a = Fq6.random st and b = Fq6.random st in
          check_bool "mul" true (Fq6.equal (Fq6.mul a b) (fq6_schoolbook a b));
          check_bool "sqr" true (Fq6.equal (Fq6.sqr a) (fq6_schoolbook a a));
          check_bool "mul_by_01" true
            (Fq6.equal
               (Fq6.mul_by_01 a b.Fq6.c0 b.Fq6.c1)
               (fq6_schoolbook a (Fq6.make b.Fq6.c0 b.Fq6.c1 Fq2.zero)))
        done);
    t "fq12 sparse line product" (fun () ->
        for _ = 1 to 20 do
          let f = Fq12.random st in
          let a = Fq2.random st and b = Fq2.random st and c = Fq2.random st in
          let line = Fq12.make (Fq6.of_fq2 a) (Fq6.make b c Fq2.zero) in
          check_bool "f·(a + bw + cw³)" true
            (Fq12.equal (Fq12.mul_by_line f a b c) (Fq12.mul f line))
        done);
    t "frobenius = pow by q, q², q³" (fun () ->
        for _ = 1 to 3 do
          let a = Fq12.random st in
          List.iter
            (fun k ->
              check_bool (Printf.sprintf "a^(q^%d)" k) true
                (Fq12.equal (Fq12.frobenius ~power:k a) (Fq12.pow a (B.pow Params.q k))))
            [ 1; 2; 3 ]
        done);
    t "cyclotomic squaring = squaring after the easy part" (fun () ->
        for _ = 1 to 10 do
          let f = Fq12.random st in
          (* f^((q⁶−1)(q²+1)) by the definition, without Frobenius *)
          let e = Fq12.mul (Fq12.pow f (B.pow Params.q 6)) (Fq12.inv f) in
          let g = Fq12.mul (Fq12.pow e (B.pow Params.q 2)) e in
          check_bool "cyclotomic" true (Fq12.equal (Fq12.cyclotomic_sqr g) (Fq12.sqr g));
          check_bool "conj = inverse" true (Fq12.is_one (Fq12.mul g (Fq12.conj g)))
        done) ]

(* ---------------- groups ---------------- *)

module Group_suite (G : sig
  type t

  val zero : t
  val generator : t
  val is_zero : t -> bool
  val is_on_curve : t -> bool
  val add : t -> t -> t
  val double : t -> t
  val neg : t -> t
  val equal : t -> t -> bool
  val mul : t -> B.t -> t
  val mul_fr : t -> Fr.t -> t
  val random : Random.State.t -> t
  val name : string
end) =
struct
  let rand () = G.random st

  let tests =
    let t name f = Alcotest.test_case (G.name ^ " " ^ name) `Quick f in
    [ t "generator on curve" (fun () -> check_bool "on curve" true (G.is_on_curve G.generator));
      t "group laws" (fun () ->
          for _ = 1 to 10 do
            let p = rand () and q = rand () and r = rand () in
            check_bool "closure" true (G.is_on_curve (G.add p q));
            check_bool "comm" true (G.equal (G.add p q) (G.add q p));
            check_bool "assoc" true (G.equal (G.add (G.add p q) r) (G.add p (G.add q r)));
            check_bool "identity" true (G.equal (G.add p G.zero) p);
            check_bool "inverse" true (G.is_zero (G.add p (G.neg p)));
            check_bool "double" true (G.equal (G.double p) (G.add p p))
          done);
      t "scalar mul" (fun () ->
          let p = rand () in
          check_bool "3P" true
            (G.equal (G.mul p (B.of_int 3)) (G.add p (G.add p p)));
          check_bool "0P" true (G.is_zero (G.mul p B.zero));
          let a = Fr.random st and b = Fr.random st in
          check_bool "(a+b)P = aP + bP" true
            (G.equal (G.mul_fr p (Fr.add a b)) (G.add (G.mul_fr p a) (G.mul_fr p b))));
      t "order r" (fun () ->
          check_bool "r·G = O" true (G.is_zero (G.mul G.generator Params.r));
          check_bool "G ≠ O" false (G.is_zero G.generator)) ]
end

module G1_suite = Group_suite (struct
  include G1
  let name = "G1"
end)

module G2_suite = Group_suite (struct
  include G2
  let name = "G2"
end)

(* ---------------- mixed addition and normalisation ---------------- *)

(* The curve functor instantiated here exposes the Jacobian record, so
   [add]'s mixed path (an operand with z = 1) is checked against the
   general add-2007-bl written out below, and [normalize] against the
   points it rewrites. *)
module Jacobian_suite (F : sig
  include Zkvc_curve.Weierstrass.Coord

  val random : Random.State.t -> t
end) (P : sig
  val b : F.t
  val name : string

  (* a random point of the prime-order group, affine *)
  val random_affine : unit -> F.t * F.t
end) =
struct
  module W = Zkvc_curve.Weierstrass.Make (F) (P)

  (* add-2007-bl on every input, whatever its z *)
  let add_2007_bl (p : W.t) (q : W.t) =
    if W.is_zero p then q
    else if W.is_zero q then p
    else begin
      let z1z1 = F.sqr p.z and z2z2 = F.sqr q.z in
      let u1 = F.mul p.x z2z2 and u2 = F.mul q.x z1z1 in
      let s1 = F.mul p.y (F.mul q.z z2z2) and s2 = F.mul q.y (F.mul p.z z1z1) in
      if F.equal u1 u2 then if F.equal s1 s2 then W.double p else W.zero
      else begin
        let h = F.sub u2 u1 in
        let i = F.sqr (F.double h) in
        let j = F.mul h i in
        let rr = F.double (F.sub s2 s1) in
        let v = F.mul u1 i in
        let x = F.sub (F.sub (F.sqr rr) j) (F.double v) in
        { W.x;
          y = F.sub (F.mul rr (F.sub v x)) (F.double (F.mul s1 j));
          z = F.mul (F.sub (F.sub (F.sqr (F.add p.z q.z)) z1z1) z2z2) h }
      end
    end

  let affine () = W.of_affine (P.random_affine ())

  (* the same point with a random z ≠ 1: (λ²x, λ³y, λ) *)
  let rec jacobian (p : W.t) =
    let l = F.random st in
    if F.is_zero l || F.equal l F.one then jacobian p
    else
      let l2 = F.sqr l in
      { W.x = F.mul p.x l2; y = F.mul p.y (F.mul l2 l); z = F.mul p.z l }

  let is_affine (p : W.t) = F.equal p.z F.one

  let tests =
    let t name f = Alcotest.test_case (P.name ^ " " ^ name) `Quick f in
    [ t "mixed add = add-2007-bl" (fun () ->
          for _ = 1 to 10 do
            let a = affine () and b = affine () in
            let ja = jacobian a and jb = jacobian b in
            List.iter
              (fun (name, p, q) ->
                let got = W.add p q in
                check_bool (name ^ " on curve") true (W.is_on_curve got);
                check_bool name true (W.equal got (add_2007_bl p q)))
              [ ("P+P", a, a);
                ("J(P)+P", ja, a);
                ("P+J(P)", a, ja);
                ("P+(-P)", a, W.neg a);
                ("J(P)+(-P)", ja, W.neg a);
                ("O+A", W.zero, a);
                ("A+O", a, W.zero);
                ("affine+affine", a, b);
                ("Jacobian+affine", jb, a);
                ("affine+Jacobian", a, jb);
                ("Jacobian+Jacobian", ja, jb) ];
            check_bool "P+P = 2P" true (W.equal (W.add a a) (W.double a));
            check_bool "P+(-P) = O" true (W.is_zero (W.add a (W.neg a)))
          done);
      t "to_bytes of Jacobian and normalised forms agree" (fun () ->
          (* an affine point's encoding skips the inversion: it must match
             the encoding computed through 1/z for the same point *)
          for _ = 1 to 5 do
            let a = affine () in
            let ps = Array.init 4 (fun i -> jacobian (if i = 0 then a else W.double (jacobian a))) in
            let normalised = Array.copy ps in
            W.normalize normalised;
            Array.iteri
              (fun i p ->
                let n = normalised.(i) in
                check_bool "normalised is affine" true (is_affine n);
                check_bool "same bytes" true (Bytes.equal (W.to_bytes p) (W.to_bytes n));
                check_bool "same affine coordinates" true (W.to_affine p = W.to_affine n);
                let decoded = W.of_bytes_exn (W.to_bytes p) in
                check_bool "decoded is affine" true (is_affine decoded);
                check_bool "decoded re-encodes" true
                  (Bytes.equal (W.to_bytes decoded) (W.to_bytes p)))
              ps
          done;
          check_bool "O" true (Bytes.equal (W.to_bytes W.zero) (W.to_bytes (jacobian W.zero))));
      t "normalize round-trips" (fun () ->
          let a = affine () and b = affine () and c = affine () in
          let ps =
            [| W.zero; a; jacobian b; W.zero; jacobian c; a; jacobian (W.double a); b |]
          in
          let orig = Array.copy ps in
          W.normalize ps;
          Array.iteri
            (fun i p ->
              let tag = Printf.sprintf "entry %d" i in
              check_bool (tag ^ " same point") true (W.equal p orig.(i));
              check_bool (tag ^ " same bytes") true
                (Bytes.equal (W.to_bytes p) (W.to_bytes orig.(i)));
              check_bool (tag ^ " affine or O") true (W.is_zero p || is_affine p))
            ps;
          let zeros = [| W.zero; W.zero |] in
          W.normalize zeros;
          check_bool "all O" true (Array.for_all W.is_zero zeros);
          W.normalize [||];
          let one = [| jacobian a |] in
          W.normalize one;
          check_bool "single" true (is_affine one.(0) && W.equal one.(0) a)) ]
end

module Jacobian_g1_suite =
  Jacobian_suite
    (Fq)
    (struct
      let b = Fq.of_int 3
      let name = "G1"
      let random_affine () = Option.get (G1.to_affine (G1.random st))
    end)

module Jacobian_g2_suite =
  Jacobian_suite
    (Fq2)
    (struct
      let b = G2.b_twist
      let name = "G2"
      let random_affine () = Option.get (G2.to_affine (G2.random st))
    end)

(* ---------------- MSM ---------------- *)

module Msm_g1 = Zkvc_curve.Msm.Make (G1)

let msm_tests =
  [ Alcotest.test_case "pippenger = naive" `Quick (fun () ->
        List.iter
          (fun n ->
            let points = Array.init n (fun _ -> G1.random st) in
            let scalars = Array.init n (fun _ -> Fr.random st) in
            let fast = Msm_g1.msm points scalars in
            let slow = Msm_g1.msm_naive ~mul:G1.mul_fr points scalars in
            check_bool (Printf.sprintf "n=%d" n) true (G1.equal fast slow))
          [ 0; 1; 2; 3; 7; 33; 100 ]);
    Alcotest.test_case "msm with zero and repeated scalars" `Quick (fun () ->
        let p = G1.random st in
        let points = [| p; p; G1.generator |] in
        let scalars = [| Fr.of_int 5; Fr.of_int 0; Fr.of_int 1 |] in
        let expect = G1.add (G1.mul p (B.of_int 5)) G1.generator in
        check_bool "combo" true (G1.equal (Msm_g1.msm points scalars) expect)) ]

(* Scalar distributions that stress the window planner (bit lengths, live
   prefixes, windows of different widths), checked against Σ s_i·P_i. *)
module Msm_suite (G : sig
  type t

  val zero : t
  val add : t -> t -> t
  val double : t -> t
  val neg : t -> t
  val normalize : t array -> unit
  val equal : t -> t -> bool
  val mul_fr : t -> Fr.t -> t
  val random : Random.State.t -> t
  val name : string
end) =
struct
  module M = Zkvc_curve.Msm.Make (G)

  (* a uniform scalar of exactly [l] bits (l = 0 gives zero; 254-bit
     scalars stay below r) *)
  let of_length l =
    if l = 0 then Fr.zero
    else
      let top = B.shift_left B.one (l - 1) in
      let room = B.min top (B.sub Fr.modulus top) in
      Fr.of_bigint (B.add top (B.random st room))

  let small () = Fr.of_int (Random.State.int st 256)
  let r_minus_1 = Fr.neg Fr.one

  let distributions =
    [ ("all zero", Array.make 40 Fr.zero);
      ("n = 1", [| Fr.random st |]);
      ("n = 1, r - 1", [| r_minus_1 |]);
      ("r - 1", Array.make 9 r_minus_1);
      ( "one 254-bit among <= 8-bit",
        Array.init 150 (fun i -> if i = 97 then of_length 254 else small ()) );
      ("one of each bit length 0..254", Array.init 255 of_length) ]

  let tests =
    List.map
      (fun (name, scalars) ->
        Alcotest.test_case (Printf.sprintf "%s msm = naive: %s" G.name name) `Quick (fun () ->
            let points = Array.map (fun _ -> G.random st) scalars in
            check_bool name true
              (G.equal (M.msm points scalars) (M.msm_naive ~mul:G.mul_fr points scalars))))
      distributions

  let affine ps =
    let ps = Array.copy ps in
    G.normalize ps;
    ps

  (* bases of every shape a caller passes: affine (normalised keys,
     hash-to-curve generators), Jacobian (IPA-folded x·G_l + x⁻¹·G_r), a
     mix, and repeated or negated bases, which drive a bucket through
     P + P and P + (−P) *)
  let bases n =
    let jac = Array.init n (fun _ -> G.random st) in
    let x = Fr.random st in
    let xinv = Fr.inv x in
    let gl = Array.init n (fun _ -> G.random st) and gr = Array.init n (fun _ -> G.random st) in
    let p = G.random st and q = G.random st in
    let aff_p = (affine [| p |]).(0) in
    [ ("affine", affine jac);
      ("Jacobian", jac);
      ("IPA-folded", Array.init n (fun i -> G.add (G.mul_fr gl.(i) x) (G.mul_fr gr.(i) xinv)));
      ("mixed", Array.mapi (fun i b -> if i mod 2 = 0 then b else (affine [| b |]).(0)) jac);
      ( "duplicated and negated",
        Array.init n (fun i ->
            match i mod 6 with
            | 0 -> p
            | 1 -> G.neg p
            | 2 -> aff_p
            | 3 -> G.neg aff_p
            | 4 -> q
            | _ -> G.neg q) ) ]

  let base_tests =
    [ Alcotest.test_case (G.name ^ " msm = naive over affine, Jacobian and mixed bases") `Quick
        (fun () ->
          let n = 48 in
          (* full-width scalars give negative digits in most windows;
             r − 1 and equal scalars make buckets meet the same base twice *)
          let scalars =
            Array.init n (fun i ->
                match i mod 4 with 0 -> r_minus_1 | 1 -> small () | _ -> Fr.random st)
          in
          List.iter
            (fun (name, points) ->
              check_bool name true
                (G.equal (M.msm points scalars) (M.msm_naive ~mul:G.mul_fr points scalars));
              let same = Array.make n (Fr.random st) in
              check_bool (name ^ ", equal scalars") true
                (G.equal (M.msm points same) (M.msm_naive ~mul:G.mul_fr points same)))
            (bases n)) ]
end

module Msm_g1_suite = Msm_suite (struct
  include G1
  let name = "G1"
end)

module Msm_g2_suite = Msm_suite (struct
  include G2
  let name = "G2"
end)

module Fb_g1 = Zkvc_curve.Fixed_base.Make (G1)

let plan_tests =
  let pow2 k = B.shift_left B.one k in
  [ Alcotest.test_case "planned windows tile [0, longest bit length + 1)" `Quick (fun () ->
        (* signed digits carry out of each window's top bit, so the top
           window must read the zero bit above the longest scalar *)
        let check name scalars =
          let bs = Array.map Fr.to_bigint scalars in
          let top = Array.fold_left (fun m s -> max m (B.num_bits s)) 0 bs in
          let next =
            Array.fold_left
              (fun lo (lo', c) ->
                check_bool (name ^ ": contiguous") true (lo = lo' && c >= 1);
                lo + c)
              0 (Zkvc_curve.Msm.windows bs)
          in
          Alcotest.(check int) (name ^ ": ends above the top bit") (top + 1) next
        in
        List.iter (fun (name, scalars) -> check name scalars) Msm_g1_suite.distributions;
        let six = Array.init 128 (fun i -> Fr.of_int (i mod 64)) in
        check "6-bit" six;
        Alcotest.(check (list (pair int int)))
          "128 six-bit scalars: one 7-bit window" [ (0, 7) ]
          (Array.to_list (Zkvc_curve.Msm.windows (Array.map Fr.to_bigint six))));
    Alcotest.test_case "signed digits rebuild every scalar below 2^8" `Quick (fun () ->
        let rebuild s windows =
          Array.fold_left
            (fun acc (lo, c) ->
              let d = Zkvc_curve.Msm.digit s ~lo ~c in
              if abs d > 1 lsl (c - 1) then
                Alcotest.failf "s=%s: digit %d of window (%d, %d) out of range" (B.to_string s)
                  d lo c;
              acc + (d lsl lo))
            0 windows
        in
        let all = Array.init 256 B.of_int in
        (* every uniform width up to 8, tiling [0, 9) with a narrower top *)
        for c = 1 to 8 do
          let windows = Array.init ((8 + c) / c) (fun w -> (w * c, min c (9 - (w * c)))) in
          Array.iteri
            (fun i s -> Alcotest.(check int) (Printf.sprintf "width %d" c) i (rebuild s windows))
            all
        done;
        (* and the planned windows, for each scalar alone and for all of them *)
        let planned = Zkvc_curve.Msm.windows all in
        Array.iteri
          (fun i s ->
            Alcotest.(check int) "own plan" i (rebuild s (Zkvc_curve.Msm.windows [| s |]));
            Alcotest.(check int) "shared plan" i (rebuild s planned))
          all);
    Alcotest.test_case "msm_bigint refuses a negative scalar" `Quick (fun () ->
        Alcotest.check_raises "msm_bigint" (Invalid_argument "Msm: negative scalar") (fun () ->
            ignore (Msm_g1.msm_bigint [| G1.generator |] [| B.of_int (-3) |])));
    Alcotest.test_case "fixed-base mul refuses scalars wider than its table" `Quick (fun () ->
        let t = Fb_g1.create G1.generator in
        check_bool "2^253" true
          (G1.equal (Fb_g1.mul_bigint t (pow2 253)) (G1.mul G1.generator (pow2 253)));
        Alcotest.check_raises "2^254" (Invalid_argument "Fixed_base.mul: scalar too wide")
          (fun () -> ignore (Fb_g1.mul_bigint t (pow2 254)))) ]

(* ---------------- pairing ---------------- *)

let pairing_tests =
  let e = Pairing.pairing in
  [ Alcotest.test_case "non-degeneracy" `Quick (fun () ->
        let g = e G1.generator G2.generator in
        check_bool "e(G1,G2) ≠ 1" false (Fq12.is_one g);
        check_bool "e(G1,G2)^r = 1" true
          (Fq12.is_one (Fq12.pow g Params.r)));
    Alcotest.test_case "identity slots" `Quick (fun () ->
        check_bool "e(O,Q)=1" true (Fq12.is_one (e G1.zero G2.generator));
        check_bool "e(P,O)=1" true (Fq12.is_one (e G1.generator G2.zero)));
    Alcotest.test_case "bilinearity in G1" `Quick (fun () ->
        let a = B.of_int 117 in
        let lhs = e (G1.mul G1.generator a) G2.generator in
        let rhs = Fq12.pow (e G1.generator G2.generator) a in
        check_bool "e(aP,Q) = e(P,Q)^a" true (Fq12.equal lhs rhs));
    Alcotest.test_case "bilinearity in G2" `Quick (fun () ->
        let b = B.of_int 2026 in
        let lhs = e G1.generator (G2.mul G2.generator b) in
        let rhs = Fq12.pow (e G1.generator G2.generator) b in
        check_bool "e(P,bQ) = e(P,Q)^b" true (Fq12.equal lhs rhs));
    Alcotest.test_case "full bilinearity" `Quick (fun () ->
        let a = Fr.random st and b = Fr.random st in
        let lhs = e (G1.mul_fr G1.generator a) (G2.mul_fr G2.generator b) in
        let rhs = e (G1.mul_fr G1.generator (Fr.mul a b)) G2.generator in
        check_bool "e(aP,bQ) = e(abP,Q)" true (Fq12.equal lhs rhs));
    Alcotest.test_case "multi-pairing cancellation" `Quick (fun () ->
        let p = G1.random st and q = G2.random st in
        let prod = Pairing.multi_pairing [ (p, q); (G1.neg p, q) ] in
        check_bool "e(P,Q)·e(-P,Q) = 1" true (Fq12.is_one prod));
    Alcotest.test_case "final exponentiation = pow by (q¹²−1)/r" `Quick (fun () ->
        for _ = 1 to 3 do
          let f = Fq12.random st in
          check_bool "fast = generic" true
            (Fq12.equal (Pairing.final_exponentiation f) (Tate_oracle.final_exponentiation f))
        done);
    Alcotest.test_case "optimal ate = Tate(Q,P)^e_o" `Quick (fun () ->
        let p = G1.random st and q = G2.random st in
        check_bool "e(P,Q) = t(Q,P)^e_o" true
          (Fq12.equal (e p q) (Fq12.pow (Tate_oracle.pairing p q) Tate_oracle.ate_exponent)));
    Alcotest.test_case "same verdicts as the Tate oracle" `Slow (fun () ->
        (* relations Σ a_i·b_i = 0 over pairs (a_i·G1, b_i·G2), and the same
           with one coefficient bumped *)
        for trial = 1 to 3 do
          let n = 1 + trial in
          let a = List.init n (fun _ -> Fr.random st) in
          let b = List.init (n - 1) (fun _ -> Fr.random st) in
          let dot = List.fold_left2 (fun acc x y -> Fr.add acc (Fr.mul x y)) Fr.zero (List.tl a) b in
          (* b_0 = −dot / a_0 closes the relation *)
          let b0 = Fr.neg (Fr.div dot (List.hd a)) in
          let pairs bs =
            List.map2 (fun x y -> (G1.mul_fr G1.generator x, G2.mul_fr G2.generator y)) a bs
          in
          let good = pairs (b0 :: b) and bad = pairs (Fr.add b0 Fr.one :: b) in
          List.iter
            (fun (name, ps, expect) ->
              check_bool (name ^ " fast") expect (Fq12.is_one (Pairing.multi_pairing ps));
              check_bool (name ^ " oracle") expect (Fq12.is_one (Tate_oracle.multi_pairing ps)))
            [ (Printf.sprintf "relation n=%d" n, good, true);
              (Printf.sprintf "non-relation n=%d" n, bad, false) ]
        done);
    Alcotest.test_case "prepared Miller loop skips identity slots" `Quick (fun () ->
        let p = G1.random st and q = G2.random st in
        let pairs =
          [ (p, Pairing.prepare_g2 q); (G1.zero, Pairing.prepare_g2 q);
            (p, Pairing.prepare_g2 G2.zero) ]
        in
        check_bool "O slots contribute 1" true
          (Fq12.equal
             (Pairing.final_exponentiation (Pairing.multi_miller_loop pairs))
             (e p q));
        check_bool "empty product" true
          (Fq12.is_one (Pairing.final_exponentiation (Pairing.multi_miller_loop [])))) ]

let () =
  Alcotest.run "zkvc_curve"
    [ ("tower", tower_tests);
      ("g1", G1_suite.tests);
      ("g2", G2_suite.tests);
      ("points", Jacobian_g1_suite.tests @ Jacobian_g2_suite.tests);
      ( "msm",
        msm_tests @ plan_tests @ Msm_g1_suite.tests @ Msm_g2_suite.tests
        @ Msm_g1_suite.base_tests @ Msm_g2_suite.base_tests );
      ("pairing", pairing_tests) ]
