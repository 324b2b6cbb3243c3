(** Schema-versioned benchmark reports — the repository's perf-trajectory
    format (committed as [BENCH_NNNN.json], diffed by [tools/perf_diff]).

    A report is an environment block (who measured, on what) plus one
    {!measurement} per (section, scheme, strategy, backend, dims) key.
    Every measurement carries its per-repetition timings, the robust
    summary derived from them ({!Stats}: median + MAD), and a {b cost
    ledger} — the resource counts the zkVC paper's claims are actually
    about (R1CS constraints, variables, nonzeros per QAP column family
    A/B/C, witness length, GC peak heap) — so CRPC/PSQ ablations record
    the mechanism (fewer constraints, sparser A) next to its effect
    (lower proving time).

    JSON encoding round-trips exactly: [of_json (to_json r) = Ok r]. *)

(** Current schema identifier, ["zkvc-bench/3"]: version 2 plus an
    optional per-measurement ["regions"] constraint-provenance tree.
    It is the only schema {!of_json} reads; earlier versions are
    refused. *)
val schema : string

type env =
  { git_rev : string;  (** commit of the measured tree, or ["unknown"] *)
    ocaml_version : string;
    nproc : int;  (** cores visible to the runner *)
    jobs : int;  (** prover worker domains ([Zkvc_parallel.jobs]) *)
    scale : int;  (** bench [--scale] divisor *)
    full : bool;
    clock : string;  (** clock source label, e.g. ["monotonic"] *)
    date : string  (** supplied by the caller; never read by this module *)
  }

(** Deterministic resource counts for one proved statement. The nonzero
    counts are per QAP column family (= R1CS matrix) A/B/C; [nonzero_a]
    is the paper's "left wires". [witness] is the private witness length
    ([num_aux]). [top_heap_words]/[major_collections] are GC cost of the
    run (the only non-deterministic fields; the differ never gates on
    them). *)
type ledger =
  { constraints : int;
    variables : int;
    nonzero_a : int;
    nonzero_b : int;
    nonzero_c : int;
    witness : int;
    top_heap_words : int;
    major_collections : int }

(** One repetition's prove/verify/setup split, seconds. *)
type rep =
  { setup_s : float;
    prove_s : float;
    verify_s : float }

type measurement =
  { section : string;  (** bench section, e.g. ["tab2"] *)
    scheme : string;  (** paper row label, e.g. ["zkVC-G"] *)
    strategy : string;  (** circuit strategy, e.g. ["crpc+psq"] *)
    backend : string;  (** ["groth16"] or ["spartan"] *)
    dims_a : int;
    dims_n : int;
    dims_b : int;
    reps : rep list;  (** timed repetitions, oldest first; never empty *)
    setup_s : float;  (** median across reps *)
    prove_s : float;  (** median across reps *)
    prove_mad_s : float;  (** MAD across reps (0 for a single rep) *)
    verify_s : float;  (** median across reps *)
    verify_mad_s : float;
    proof_bytes : int;
    ledger : ledger;
    regions : Attrib.t option
        (** constraint-provenance tree ([bench --profile] /
            [zkvc_cli profile]); [None] for non-profiled runs *) }

type t =
  { env : env;
    sections : string list;  (** bench sections that ran *)
    measurements : measurement list }

(** Build a measurement's summary fields (medians, MADs) from its reps.
    Raises [Invalid_argument] on an empty rep list. *)
val summarize :
  ?regions:Attrib.t ->
  section:string ->
  scheme:string ->
  strategy:string ->
  backend:string ->
  dims:int * int * int ->
  reps:rep list ->
  proof_bytes:int ->
  ledger:ledger ->
  unit ->
  measurement

(** Identity of a measurement across runs:
    ["section/scheme/strategy/backend/AxNxB"]. *)
val key : measurement -> string

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result

(** Parse a report from raw JSON text (file contents). *)
val of_string : string -> (t, string) result
