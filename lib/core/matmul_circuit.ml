(** The four matmul-to-R1CS encodings of the zkVC paper's ablation
    (Table II): vanilla circuits, PSQ, CRPC, and CRPC+PSQ.

    - {b Vanilla}: one constraint per scalar product plus one wide addition
      per output — [a·b·(n+1)] constraints, [a·b·n] product wires.
    - {b PSQ} (Prefix-Sum Query): carries dot-product accumulation on the
      C-side linear combination, [L_k·R_k = s_k − s_{k−1}] — removes the
      wide additions and the separate product wires.
    - {b CRPC} (Constraint-Reduced Polynomial Circuit): encodes the whole
      matrix product as a polynomial identity in a random challenge [Z]:

        Σ_{i,j} Z^{ib+j} y_ij = Σ_k (Σ_i Z^{ib} x_ik)(Σ_j Z^j w_kj)

      Both factors of each [k]-term are linear combinations with public
      coefficients (powers of Z), so only [n] multiplication constraints
      remain. The identity is exact as a polynomial in Z iff [Y = X·W], so
      instantiating Z at a Fiat–Shamir challenge sampled after committing
      to X, W, Y gives soundness error [(a·b − 1)/|F|] (Schwartz–Zippel).
    - {b CRPC+PSQ}: the CRPC product terms accumulate through prefix sums,
      removing the [u_k] wires and the final wide addition. *)

module Bigint = Zkvc_num.Bigint

type strategy = Vanilla | Vanilla_psq | Crpc | Crpc_psq

let all_strategies = [ Vanilla; Vanilla_psq; Crpc; Crpc_psq ]

let strategy_name = function
  | Vanilla -> "vanilla"
  | Vanilla_psq -> "vanilla+psq"
  | Crpc -> "crpc"
  | Crpc_psq -> "crpc+psq"

let uses_challenge = function
  | Vanilla | Vanilla_psq -> false
  | Crpc | Crpc_psq -> true

(** Closed-form constraint counts, used by documentation and the ZK-ML
    cost model; the tests check the compiled circuits match. *)
let expected_constraints strategy { Matmul_spec.a; n; b } =
  match strategy with
  | Vanilla -> a * b * (n + 1)
  | Vanilla_psq -> a * b * n
  | Crpc -> n + 1
  | Crpc_psq -> n

module Make (F : Zkvc_field.Field_intf.S) = struct
  module L = Zkvc_r1cs.Lc.Make (F)
  module B = Zkvc_r1cs.Builder.Make (F)
  module Spec = Matmul_spec.Make (F)
  module T = Zkvc_transcript.Transcript
  module Ch = T.Challenge (F)

  type wires =
    { x : int array array;
      w : int array array;
      y : int array array }

  (** Fiat–Shamir challenge for CRPC, bound to the full contents of X, W
      and Y. In the deployment flow W is bound once through a reusable
      commitment; hashing the values directly is the same binding for a
      single proof. *)
  let derive_challenge ~x ~w ~y =
    let tr = T.create ~label:"zkvc.crpc.challenge" in
    let absorb_matrix label m =
      T.absorb_int tr ~label:(label ^ ".rows") (Array.length m);
      Array.iter (fun row -> Ch.absorb_array tr ~label row) m
    in
    absorb_matrix "x" x;
    absorb_matrix "w" w;
    absorb_matrix "y" y;
    Ch.challenge tr ~label:"z"

  let alloc_matrix b ~public values =
    Array.map
      (Array.map (fun v -> if public then B.alloc_input b v else B.alloc b v))
      values

  let lc_of v = L.of_var v

  (* vanilla: products into fresh wires, then one wide addition per y_ij *)
  let constrain_vanilla b ~x ~w ~y d =
    let { Matmul_spec.a; n; b = bb } = d in
    for i = 0 to a - 1 do
      for j = 0 to bb - 1 do
        let products =
          List.init n (fun k ->
              let p =
                B.alloc b (F.mul (B.value b x.(i).(k)) (B.value b w.(k).(j)))
              in
              B.enforce b ~label:"mm-prod" (lc_of x.(i).(k)) (lc_of w.(k).(j)) (lc_of p);
              p)
        in
        let sum = L.of_terms (List.map (fun p -> (p, F.one)) products) in
        B.enforce b ~label:"mm-sum" sum (L.constant F.one) (lc_of y.(i).(j))
      done
    done

  (* vanilla + PSQ: x_ik·w_kj = s_k − s_{k−1}; the last prefix sum IS y_ij *)
  let constrain_vanilla_psq b ~x ~w ~y d =
    let { Matmul_spec.a; n; b = bb } = d in
    for i = 0 to a - 1 do
      for j = 0 to bb - 1 do
        let prev = ref L.zero and acc = ref F.zero in
        for k = 0 to n - 1 do
          let product = F.mul (B.value b x.(i).(k)) (B.value b w.(k).(j)) in
          acc := F.add !acc product;
          let s_k =
            if k = n - 1 then lc_of y.(i).(j)
            else lc_of (B.alloc b !acc)
          in
          B.enforce b ~label:"mm-psq" (lc_of x.(i).(k)) (lc_of w.(k).(j)) (L.sub s_k !prev);
          prev := s_k
        done
      done
    done

  (* [Σ_t z^t · wire t] for [t < len], built in one canonicalising pass
     ([L.of_terms]); an [add_term] fold is quadratic in [len]. *)
  let powers_lc z len wire =
    let coeff = ref F.one and terms = ref [] in
    for t = 0 to len - 1 do
      terms := (wire t, !coeff) :: !terms;
      coeff := F.mul !coeff z
    done;
    L.of_terms (List.rev !terms)

  (* CRPC factor LCs: L_k = Σ_i Z^{ib} x_ik and R_k = Σ_j Z^j w_kj. *)
  let crpc_factors ~challenge ~x ~w d k =
    let { Matmul_spec.a; n = _; b = bb } = d in
    let left = powers_lc (F.pow_int challenge bb) a (fun i -> x.(i).(k)) in
    let right = powers_lc challenge bb (fun j -> w.(k).(j)) in
    (left, right)

  (* Σ_{i,j} Z^{ib+j} y_ij *)
  let crpc_output_lc ~challenge ~y d =
    let { Matmul_spec.a; n = _; b = bb } = d in
    powers_lc challenge (a * bb) (fun t -> y.(t / bb).(t mod bb))

  let constrain_crpc b ~challenge ~x ~w ~y d =
    let { Matmul_spec.n; _ } = d in
    let terms =
      List.init n (fun k ->
          let left, right = crpc_factors ~challenge ~x ~w d k in
          let u = B.alloc b (F.mul (B.eval b left) (B.eval b right)) in
          B.enforce b ~label:"crpc-term" left right (lc_of u);
          lc_of u)
    in
    let sum = L.of_terms (List.concat_map L.terms terms) in
    B.enforce b ~label:"crpc-bind" sum (L.constant F.one) (crpc_output_lc ~challenge ~y d)

  let constrain_crpc_psq b ~challenge ~x ~w ~y d =
    let { Matmul_spec.n; _ } = d in
    let prev = ref L.zero and acc = ref F.zero in
    for k = 0 to n - 1 do
      let left, right = crpc_factors ~challenge ~x ~w d k in
      acc := F.add !acc (F.mul (B.eval b left) (B.eval b right));
      let s_k =
        if k = n - 1 then crpc_output_lc ~challenge ~y d
        else lc_of (B.alloc b !acc)
      in
      B.enforce b ~label:"crpc-psq" left right (L.sub s_k !prev);
      prev := s_k
    done

  (** Add the constraints of the chosen [strategy] binding pre-allocated
      wire matrices [y = x·w]. This is the composition entry point: chained
      layers pass one matmul's output wires as the next one's inputs. *)
  let constrain b strategy ?challenge ~x ~w ~y d =
    B.in_region b ("matmul/" ^ strategy_name strategy) (fun () ->
        match strategy, challenge with
        | Vanilla, _ -> constrain_vanilla b ~x ~w ~y d
        | Vanilla_psq, _ -> constrain_vanilla_psq b ~x ~w ~y d
        | Crpc, Some challenge -> constrain_crpc b ~challenge ~x ~w ~y d
        | Crpc_psq, Some challenge -> constrain_crpc_psq b ~challenge ~x ~w ~y d
        | (Crpc | Crpc_psq), None ->
          invalid_arg "Matmul_circuit.constrain: CRPC strategies need a challenge")

  (** Allocate wires for X, W and Y = X·W and add the constraints of the
      chosen [strategy]. [challenge] is required by the CRPC variants.
      [x] and [w] default to private witness; [y], the caller's X·W, to
      public outputs. *)
  let build b strategy ?challenge ?(x_public = false) ?(w_public = false)
      ?(y_public = true) ~x:x_values ~w:w_values ~y:y_values d =
    if not (Spec.check_dims d x_values w_values)
       || Array.length y_values <> d.Matmul_spec.a
       || not (Array.for_all (fun row -> Array.length row = d.Matmul_spec.b) y_values)
    then invalid_arg "Matmul_circuit.build: dimension mismatch";
    let x, w, y =
      B.in_region b "matmul/alloc" (fun () ->
          let x = alloc_matrix b ~public:x_public x_values in
          let w = alloc_matrix b ~public:w_public w_values in
          let y = alloc_matrix b ~public:y_public y_values in
          (x, w, y))
    in
    constrain b strategy ?challenge ~x ~w ~y d;
    { x; w; y }
end
