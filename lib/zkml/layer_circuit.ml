(** R1CS constructions for each {!Ops.t}, on top of the generic gadgets and
    zkVC's non-linear approximations.

    Signed fixed-point values are embedded in the field as [v mod p]; every
    division-flavoured gadget shifts its dividend by a large constant
    multiple of the divisor first, which keeps floor-division semantics
    while making the dividend a genuine non-negative integer
    (floor((v + K·d)/d) − K = floor(v/d)). *)

module Bigint = Zkvc_num.Bigint
module Nl = Zkvc.Nonlinear

module Make (F : Zkvc_field.Field_intf.S) = struct
  module L = Zkvc_r1cs.Lc.Make (F)
  module B = Zkvc_r1cs.Builder.Make (F)
  module G = Zkvc_r1cs.Gadgets.Make (F)
  module NlG = Nl.Make (F)
  module Mc = Zkvc.Matmul_circuit.Make (F)
  module Spec = Zkvc.Matmul_spec.Make (F)
  module Cs = Zkvc_r1cs.Constraint_system.Make (F)

  (* Offset used to make signed dividends non-negative: values are assumed
     below 2^(value_bits + fractional_bits) in magnitude, with headroom. *)
  let offset_log cfg = cfg.Nl.value_bits + cfg.Nl.fractional_bits + 4

  (** Signed floor division by a positive constant [d]:
      returns a wire holding [floor(x / d)]. *)
  let signed_div_by_constant b cfg x d =
    let k = Bigint.shift_left Bigint.one (offset_log cfg) in
    let shifted = L.add x (L.constant (F.of_bigint (Bigint.mul k d))) in
    let q, _r =
      G.div_by_constant b ~q_width:(offset_log cfg + 2) shifted d
    in
    L.sub (L.of_var q) (L.constant (F.of_bigint k))

  (** Signed floor division by a positive wire divisor. *)
  let signed_div_rem b cfg x y ~r_width =
    let k = Bigint.shift_left Bigint.one (offset_log cfg) in
    let shifted = L.add x (L.scale (F.of_bigint k) y) in
    let q, _r =
      G.div_rem b ~q_width:(offset_log cfg + 2) ~r_width shifted y
    in
    L.sub (L.of_var q) (L.constant (F.of_bigint k))

  (** Fixed-point rescale: [floor(x / S)] for a (possibly signed) raw
      product at scale S². *)
  let rescale b cfg x =
    signed_div_by_constant b cfg x (Bigint.of_int (Nl.scale cfg))

  (** Softmax over signed score wires: shifts by 2^(value_bits−1) (softmax
      is shift-invariant) so the max/exp gadgets see non-negative values.
      Scores must satisfy |score| < 2^(value_bits−1). *)
  let softmax_row b cfg xs =
    let c = F.of_int (1 lsl (cfg.Nl.value_bits - 1)) in
    let shifted =
      List.map
        (fun x ->
          let v = B.alloc b (F.add (B.eval b (L.of_var x)) c) in
          G.assert_equal b (L.of_var v) (L.add (L.of_var x) (L.constant c));
          v)
        xs
    in
    NlG.softmax b cfg shifted

  let gelu = NlG.gelu

  (** Integer-sqrt gadget: wire [r] with r² ≤ v < (r+1)², v a non-negative
      LC below 2^(2·value_bits). *)
  let isqrt b cfg v =
    let width = 2 * cfg.Nl.value_bits in
    let vv =
      match Bigint.to_int_opt (F.to_bigint (B.eval b v)) with
      | Some x -> x
      | None -> invalid_arg "Layer_circuit.isqrt: witness out of int range"
    in
    let r = B.alloc b (F.of_int (Zkvc_nn.Quantize.isqrt vv)) in
    let rsq = G.mul b (L.of_var r) (L.of_var r) in
    (* v - r² ≥ 0 *)
    G.assert_in_range b ~width (L.sub v (L.of_var rsq));
    (* (r+1)² - 1 - v = r² + 2r - v ≥ 0 *)
    G.assert_in_range b ~width
      (L.sub (L.add (L.of_var rsq) (L.scale (F.of_int 2) (L.of_var r))) v);
    r

  (** Per-row layer normalisation, exactly {!Zkvc_nn.Quantize.layernorm}:
      mean and variance by verified floor division, σ by the isqrt gadget,
      then one signed division per element. Returns the output wires. *)
  let layernorm_row b cfg xs =
    let cols = List.length xs in
    if cols = 0 then invalid_arg "Layer_circuit.layernorm_row: empty";
    let s = Nl.scale cfg in
    let sum = List.fold_left (fun acc x -> L.add acc (L.of_var x)) L.zero xs in
    let mean = signed_div_by_constant b cfg sum (Bigint.of_int cols) in
    let diffs = List.map (fun x -> L.sub (L.of_var x) mean) xs in
    let sq_sum =
      List.fold_left (fun acc d -> L.add acc (L.of_var (G.mul b d d))) L.zero diffs
    in
    let var = signed_div_by_constant b cfg sq_sum (Bigint.of_int cols) in
    let sigma_raw = isqrt b cfg var in
    (* σ is clamped to ≥ 1 in the reference; enforce with a select on σ=0 *)
    let is_z = G.is_zero b (L.of_var sigma_raw) in
    let sigma = G.select b (L.of_var is_z) (L.constant F.one) (L.of_var sigma_raw) in
    List.map
      (fun d ->
        signed_div_rem b cfg
          (L.scale (F.of_int s) d)
          (L.of_var sigma)
          ~r_width:(2 * cfg.Nl.value_bits))
      diffs

  (** Average of [window] wires with verified floor division. *)
  let mean_pool b cfg xs =
    let window = List.length xs in
    let sum = List.fold_left (fun acc x -> L.add acc (L.of_var x)) L.zero xs in
    signed_div_by_constant b cfg sum (Bigint.of_int window)

  (* ------------------------------------------------------------------ *)
  (* Building a full (dummy-witness) circuit for one op                   *)

  let alloc_value b v = B.alloc b (F.of_int v)

  (** Construct a representative circuit for [op] with synthetic witness
      values. The circuit shape depends only on [op] and [cfg], never on
      the values, so this doubles as the exact constraint counter.

      Each op's synthesis runs inside a provenance region named after the
      op ({!Ops.name}), so profiled builds attribute constraints per op;
      [Op_matmul] relies on {!Zkvc.Matmul_circuit.build}'s own
      ["matmul/..."] regions instead of opening a duplicate. *)
  let build_op ?(strategy = Zkvc.Matmul_circuit.Crpc_psq) b cfg (op : Ops.t) =
    let st = Random.State.make [| 7; 77 |] in
    let in_op f = B.in_region b (Ops.name op) f in
    match op with
    | Ops.Op_matmul d ->
      let x = Spec.random_matrix st ~rows:d.Zkvc.Matmul_spec.a ~cols:d.Zkvc.Matmul_spec.n ~bound:64 in
      let w = Spec.random_matrix st ~rows:d.Zkvc.Matmul_spec.n ~cols:d.Zkvc.Matmul_spec.b ~bound:64 in
      let y = Spec.multiply x w in
      let challenge =
        if Zkvc.Matmul_circuit.uses_challenge strategy then
          Some (Mc.derive_challenge ~x ~w ~y)
        else None
      in
      ignore (Mc.build b strategy ?challenge ~x ~w ~y ~y_public:false d)
    | Ops.Op_rescale n ->
      in_op (fun () ->
          for _ = 1 to n do
            let x = alloc_value b (Random.State.int st 10000 - 5000) in
            ignore (rescale b cfg (L.of_var x))
          done)
    | Ops.Op_scale_div { elems; divisor } ->
      in_op (fun () ->
          for _ = 1 to elems do
            let x = alloc_value b (Random.State.int st 10000 - 5000) in
            ignore (signed_div_by_constant b cfg (L.of_var x) (Bigint.of_int divisor))
          done)
    | Ops.Op_softmax { rows; len } ->
      in_op (fun () ->
          for _ = 1 to rows do
            let xs = List.init len (fun _ -> alloc_value b (Random.State.int st 512 - 256)) in
            ignore (softmax_row b cfg xs)
          done)
    | Ops.Op_gelu n ->
      in_op (fun () ->
          for _ = 1 to n do
            let x = alloc_value b (Random.State.int st 512 - 256) in
            ignore (gelu b cfg x)
          done)
    | Ops.Op_layernorm { rows; cols } ->
      in_op (fun () ->
          for _ = 1 to rows do
            let xs = List.init cols (fun _ -> alloc_value b (Random.State.int st 512 - 256)) in
            ignore (layernorm_row b cfg xs)
          done)
    | Ops.Op_mean_pool { out_elems; window } ->
      in_op (fun () ->
          for _ = 1 to out_elems do
            let xs = List.init window (fun _ -> alloc_value b (Random.State.int st 512 - 256)) in
            ignore (mean_pool b cfg xs)
          done)

  (* ------------------------------------------------------------------ *)
  (* Exact constraint counting without full-size builds                   *)

  let count_of_build ?strategy cfg op =
    let b = B.create () in
    build_op ?strategy b cfg op;
    let cs, _ = B.finalize b in
    { Ops.constraints = Cs.num_constraints cs; variables = Cs.num_vars cs }

  let memo :
      (Zkvc.Matmul_circuit.strategy option * Nl.config * Ops.t, Ops.counts) Hashtbl.t =
    Hashtbl.create 64

  let memo_count ?strategy cfg op =
    match Hashtbl.find_opt memo (strategy, cfg, op) with
    | Some c -> c
    | None ->
      let c = count_of_build ?strategy cfg op in
      Hashtbl.add memo (strategy, cfg, op) c;
      c

  (** Exact counts for an op, computed with O(1)-size circuit builds:
      every non-matmul op is affine in each of its size parameters
      (validated against direct builds by the test suite), so builds at
      parameter values 2 and 3 pin the closed form; matmul uses the
      analytic formulas of {!Zkvc.Matmul_circuit}. *)
  let count ?(strategy = Zkvc.Matmul_circuit.Crpc_psq) cfg (op : Ops.t) : Ops.counts =
    (* replicate a single-instance count [reps] times (wire 0 is shared;
       exact because instances never share other wires) *)
    let replicate reps (c : Ops.counts) =
      { Ops.constraints = reps * c.Ops.constraints;
        variables = 1 + (reps * (c.Ops.variables - 1)) }
    in
    (* per-unit cost from one real (memoized) build at the true inner size:
       division-gadget widths depend on the divisor's bit length, so the
       inner size must not be extrapolated *)
    let unit op = memo_count ~strategy cfg op in
    match op with
    | Ops.Op_matmul d ->
      let { Zkvc.Matmul_spec.a; n; b = bb } = d in
      let product_wires =
        match strategy with
        | Zkvc.Matmul_circuit.Vanilla -> a * bb * n
        | Vanilla_psq -> a * bb * (n - 1)
        | Crpc -> n
        | Crpc_psq -> n - 1
      in
      { Ops.constraints = Zkvc.Matmul_circuit.expected_constraints strategy d;
        variables = 1 + (a * n) + (n * bb) + (a * bb) + product_wires }
    | Ops.Op_rescale k -> replicate k (unit (Ops.Op_rescale 1))
    | Ops.Op_gelu k -> replicate k (unit (Ops.Op_gelu 1))
    | Ops.Op_scale_div { elems; divisor } ->
      replicate elems (unit (Ops.Op_scale_div { elems = 1; divisor }))
    | Ops.Op_softmax { rows; len } -> replicate rows (unit (Ops.Op_softmax { rows = 1; len }))
    | Ops.Op_layernorm { rows; cols } ->
      replicate rows (unit (Ops.Op_layernorm { rows = 1; cols }))
    | Ops.Op_mean_pool { out_elems; window } ->
      replicate out_elems (unit (Ops.Op_mean_pool { out_elems = 1; window }))
end
