(** Pedersen vector commitments over BN254 G1 with nothing-up-my-sleeve
    generators (try-and-increment hash-to-curve from SHA-256). Binding under
    the discrete log assumption; hiding through the blinding generator. *)

module Fq = Zkvc_field.Fq
module Fr = Zkvc_field.Fr
module Bigint = Zkvc_num.Bigint
module G1 = Zkvc_curve.G1
module Sha256 = Zkvc_hash.Sha256
module Msm = Zkvc_curve.Msm.Make (G1)
module Fb = Zkvc_curve.Fixed_base.Make (G1)

(* y² = x³ + 3 over Fq; q ≡ 3 (mod 4) so sqrt is a single exponentiation. *)
let sqrt_fq a =
  let e = Bigint.shift_right (Bigint.add Fq.modulus Bigint.one) 2 in
  let y = Fq.pow a e in
  if Fq.equal (Fq.sqr y) a then Some y else None

(** Deterministic point with unknown discrete log: hash the seed, use the
    digest as an x-coordinate and increment until the curve equation has a
    solution. G1 has prime order, so no cofactor clearing is needed. *)
let hash_to_point seed =
  let rec try_x x =
    let rhs = Fq.add (Fq.mul x (Fq.sqr x)) (Fq.of_int 3) in
    match sqrt_fq rhs with
    | Some y -> G1.of_affine (x, y)
    | None -> try_x (Fq.add x Fq.one)
  in
  let digest = Sha256.digest_string ("zkvc.pedersen." ^ seed) in
  try_x (Fq.of_bigint (Bigint.of_bytes_be digest))

type key =
  { generators : G1.t array; (* H_0 .. H_{n-1} *)
    blinder : G1.t (* U *) }

(* U is the same point for every key that {!create_key} makes, so one
   fixed-base table serves them all: built on first use, shared by every
   domain (a racing builder's identical table is dropped), and kept out of
   the key so a cache of several keys holds it once. Window 3 makes
   blind·U at most 85 additions instead of 254 doublings and ~127
   additions, for a 595-point table; window 4 (960 points) was no faster
   per commitment and cost a proof server about 1.7× the resident memory.
   The table is normalised to affine once, when it is built, so each of
   those additions takes the mixed formula. *)
let blinder_window = 3
let blinder_table : (G1.t * Fb.table) option Atomic.t = Atomic.make None

let standard_blinder () =
  match Atomic.get blinder_table with
  | Some s -> s
  | None ->
    let u = hash_to_point "blinder" in
    let table = Fb.create ~window:blinder_window ~normalize:G1.normalize u in
    ignore (Atomic.compare_and_set blinder_table None (Some (u, table)));
    Option.get (Atomic.get blinder_table)

let create_key n =
  { generators = Array.init n (fun i -> hash_to_point (string_of_int i));
    blinder = hash_to_point "blinder" }

(** Reassemble a key from raw points (deserialisation). The caller is
    trusted about the generators' provenance — points parsed from a key
    file are curve-validated but their discrete logs are unknowable only
    if the file really came from {!create_key}. *)
let of_raw ~generators ~blinder = { generators; blinder }

let key_size key = Array.length key.generators

let generators key = key.generators
let blinder key = key.blinder

(** [commit key v ~blind = Σ v_i H_i + blind·U]. [v] may be shorter than
    the key. *)
let commit key v ~blind =
  if Array.length v > Array.length key.generators then
    invalid_arg "Pedersen.commit: vector longer than key";
  let points = Array.sub key.generators 0 (Array.length v) in
  let u, table = standard_blinder () in
  let blind_term =
    (* a deserialised key may carry another blinder: multiply it directly *)
    if G1.equal key.blinder u then Fb.mul table blind else G1.mul_fr key.blinder blind
  in
  G1.add (Msm.msm points v) blind_term

(** Homomorphism check used by the Hyrax-style opening:
    [Σ w_i·C_i = commit(folded, blind)]. *)
let check_fold key ~commitments ~weights ~folded ~blind =
  if Array.length commitments <> Array.length weights then
    invalid_arg "Pedersen.check_fold: length mismatch";
  let lhs = Msm.msm commitments weights in
  G1.equal lhs (commit key folded ~blind)
