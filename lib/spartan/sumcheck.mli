(** Sumcheck protocol (Lund–Fortnow–Karloff–Nisan), made non-interactive
    with the Fiat–Shamir transcript. The prover has one kernel per
    statement shape the stack proves, both over equal-size power-of-two
    multilinear evaluation tables (variable 0 on the most significant
    index bit):

    - {!prove_eq_r1cs}: [Σ_x eq̃(τ, x)·(a(x)·b(x) − c(x))], degree 3
      (Spartan's first sumcheck);
    - {!prove_product}: [Σ_x a(x)·b(x)], degree 2 (Spartan's second
      sumcheck and Thaler's matmul protocol).

    Each round message is the round polynomial's evaluations at
    0, 1, ..., degree, so the proof depends only on the statement and
    the transcript, not on how a kernel computes it. *)

module Make (F : Zkvc_field.Field_intf.S) : sig
  (** One round message: evaluations of the round polynomial at
      0, 1, ..., degree. *)
  type round = F.t array

  type proof = round list

  (** Lagrange evaluation of a degree-d polynomial given its values at
      0..d, in barycentric form with per-degree weights. *)
  val interpolate_at : F.t array -> F.t -> F.t

  (** [prove_eq_r1cs tr ~label ~tau a b c] proves
      [Σ_x eq̃(τ, x)·(a(x)·b(x) − c(x))] with [List.length tau] rounds of
      degree 3. Returns (round messages, challenges r, finals) where the
      finals are [| eq̃(τ, r); ã(r); b̃(r); c̃(r) |]. Inputs are not
      mutated; raises [Invalid_argument] on ragged tables, a length that
      is not a power of two, or a [tau] of the wrong arity. *)
  val prove_eq_r1cs :
    Zkvc_transcript.Transcript.t ->
    label:string ->
    tau:F.t list ->
    F.t array ->
    F.t array ->
    F.t array ->
    proof * F.t list * F.t array

  (** [prove_product tr ~label a b] proves [Σ_x a(x)·b(x)] with
      log2(length) rounds of degree 2 (none for a table of length 1).
      Returns (round messages, challenges r, [| ã(r); b̃(r) |]). Inputs
      are not mutated. *)
  val prove_product :
    Zkvc_transcript.Transcript.t ->
    label:string ->
    F.t array ->
    F.t array ->
    proof * F.t list * F.t array

  (** Replays the transcript, checking [s_j(0) + s_j(1) = claim_j] each
      round. [Some (final_claim, challenges)] on success. *)
  val verify :
    Zkvc_transcript.Transcript.t ->
    label:string ->
    degree:int ->
    claim:F.t ->
    proof ->
    (F.t * F.t list) option
end
