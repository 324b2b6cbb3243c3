(** Binary wire protocol of the zkVC proof service.

    Every message travels as one frame:

    {v
    offset  size  field
    0       4     magic "ZKVC"
    4       1     version (always {!version} = 3)
    5       1     kind (request 0x01..0x07, response 0x81..0x87, 0xff error)
    6       4     payload length, big-endian (at most {!max_payload})
    10      n     payload
    v}

    Every request payload starts with an optional {!trace} block
    (16-byte request id + origin string) and every response payload with
    an optional {!timing} block (request-id echo, queue wait, execution
    time, named phase offsets), enabling cross-process trace stitching.
    The {!status} payload ends with a scheduler block (worker-pool size
    and occupancy, queued jobs by request kind). Frames, proof files and
    key files carrying any other version byte decode to
    [Error (Unsupported_version v)].

    Integers are big-endian; scalars are the canonical 32-byte Fr
    encoding; curve points use the libraries' tagged uncompressed
    formats. Parsing is total: every decoding entry point returns
    [(_, error) result], never raises and never reads past the declared
    payload, and every scalar/point is validated on parse (canonicity,
    curve equation, G2 subgroup) exactly like
    [Groth16.proof_of_bytes_exn]. *)

module Fr = Zkvc_field.Fr
module Api = Zkvc.Api

(** Decode failures. [Eof] means the peer closed the stream cleanly at a
    frame boundary. *)
type error =
  | Eof
  | Bad_magic
  | Unsupported_version of int
  | Truncated
  | Oversized of int
  | Bad_tag of { what : string; tag : int }
  | Malformed of string

val error_to_string : error -> string

(** Hard upper bound on a frame payload (64 MiB): a corrupt or hostile
    length field can never trigger an over-read or a huge allocation. *)
val max_payload : int

(** The one wire version this build speaks, in frames, proof files and
    key files. *)
val version : int

(** Size of a {!trace} request id, in raw bytes (16). *)
val request_id_bytes : int

(** How a prove request supplies the statement: [Seeded] reproduces the
    CLI's seeded-random instance — on a key-cache miss the proof is
    byte-identical to a local [zkvc_cli prove --seed]; on a cache hit
    the setup's RNG draws are skipped, so the proof bytes differ from
    the local run (the proof remains valid). [Explicit] ships the
    matrices and uses [seed] only for prover randomness. *)
type prove_input =
  | Seeded of { seed : int; bound : int }
  | Explicit of { seed : int; x : Fr.t array array; w : Fr.t array array }

(** Client trace context attached to requests: [tr_request_id] is 16
    raw bytes chosen by the client (unique per request), [tr_origin] a
    short free-form label of the requesting process (at most 256
    bytes). *)
type trace = { tr_request_id : string; tr_origin : string }

(** Server-side timings attached to responses. [tm_request_id]
    echoes the request's trace id (all zeros when the request carried
    none); [tm_phases] are [(name, offset_s, duration_s)] with offsets
    relative to the start of execution (after [tm_queue_wait_s] of
    queueing). At most 256 phases, names at most 128 bytes. *)
type timing =
  { tm_request_id : string;
    tm_queue_wait_s : float;
    tm_exec_s : float;
    tm_phases : (string * float * float) list }

(** [deadline_ms = 0] means no deadline; otherwise the server aborts the
    job (between phases, or before it starts) once that many
    milliseconds have elapsed since the request arrived. *)
type request =
  | Keygen of
      { backend : Api.backend;
        strategy : Zkvc.Matmul_circuit.strategy;
        dims : Zkvc.Matmul_spec.dims;
        seed : int;
        bound : int;
        deadline_ms : int }
  | Prove of
      { backend : Api.backend;
        strategy : Zkvc.Matmul_circuit.strategy;
        dims : Zkvc.Matmul_spec.dims;
        input : prove_input;
        deadline_ms : int }
  | Verify of
      { key_id : string;  (** 32-byte raw cache id, as returned by prove *)
        public_inputs : Fr.t list;
        proof : Api.proof;
        deadline_ms : int }
  | Batch_verify of
      { key_id : string;
        items : (Fr.t list * Api.proof) list;
        deadline_ms : int }
  | Status
  | Status_detail
      (** Status plus a metrics-exposition snapshot and the flight
          recorder dump. *)
  | Shutdown

type status =
  { uptime_s : float;
    requests : int;
    queue_depth : int;
    queue_capacity : int;
    cache_hits : int;
    cache_misses : int;
    cache_entries : int;
    timeouts : int;
    rejections : int;
    batched : int;
    workers : int;  (** worker-thread pool size *)
    workers_busy : int;  (** workers executing a job right now *)
    queue_depth_verify : int;  (** queued verify and batch-verify jobs *)
    queue_depth_prove : int  (** queued keygen and prove jobs *) }

type error_code =
  | Queue_full
  | Deadline_exceeded
  | Bad_request
  | Unknown_key
  | Shutting_down
  | Internal

val error_code_to_string : error_code -> string

type response =
  | Keygen_ok of { key_id : string; cache_hit : bool; key_bytes : Bytes.t }
      (** [key_bytes] is a {!key_file} encoding — save it and verify on
          another machine. *)
  | Prove_ok of
      { key_id : string;
        cache_hit : bool;
        challenge : Fr.t option;
        public_inputs : Fr.t list;
        proof : Api.proof;
        prove_s : float }
  | Verify_ok of bool
  | Batch_ok of bool list
  | Status_ok of status
  | Status_detail_ok of
      { status : status;
        metrics_text : string;  (** Prometheus exposition ({!Zkvc_obs.Expose}) *)
        flight_jsonl : string  (** flight-recorder dump, one JSON object per line *) }
  | Shutdown_ok
  | Error of { code : error_code; message : string }

(** Frames pair the operation with its optional trace / timing block. *)
type frame =
  | Request of trace option * request
  | Response of timing option * response

(** What the decoder saw on the wire besides the frame: its payload
    length. *)
type meta = { payload_bytes : int }

(** Whole-buffer codec: [decode_frame] requires exactly one well-formed
    frame (trailing bytes are an error). *)
val encode_frame : frame -> Bytes.t

val decode_frame : Bytes.t -> (frame, error) result

val decode_frame' : Bytes.t -> (frame * meta, error) result

(** Blocking frame IO over a file descriptor. [read_frame] returns
    [Error Eof] on a clean close at a frame boundary, [Error Truncated]
    on a mid-frame close. [write_frame] raises [Unix.Unix_error] on IO
    failure. *)
val write_frame : Unix.file_descr -> frame -> unit

val read_frame : Unix.file_descr -> (frame, error) result

(** [read_frame] plus the wire {!meta} of the decoded frame. *)
val read_frame' : Unix.file_descr -> (frame * meta, error) result

(** {2 Codec files}

    Self-contained on-disk artefacts sharing the frame payload
    conventions: a proof plus everything needed to verify it elsewhere,
    and a key file as written by [zkvc_cli keygen], the serve disk cache
    and {!response.Keygen_ok}. *)

type proof_file =
  { pf_backend : Api.backend;
    pf_strategy : Zkvc.Matmul_circuit.strategy;
    pf_dims : Zkvc.Matmul_spec.dims;
    pf_challenge : Fr.t option;
    pf_key_id : string;
    pf_public_inputs : Fr.t list;
    pf_proof : Api.proof }

val encode_proof_file : proof_file -> Bytes.t
val decode_proof_file : Bytes.t -> (proof_file, error) result

type key_file =
  { kf_backend : Api.backend;
    kf_strategy : Zkvc.Matmul_circuit.strategy;
    kf_dims : Zkvc.Matmul_spec.dims;
    kf_challenge : Fr.t option;
    kf_key_id : string;
    kf_keys : Api.keys
        (** Rebuilt on decode: the circuit-derived halves (Groth16 QAP,
            Spartan instance) are resynthesised from
            [Api.circuit_shape]. *) }

val encode_key_file : key_file -> Bytes.t
val decode_key_file : Bytes.t -> (key_file, error) result

(** Lowercase hex of a 32-byte key id (for display and file names). *)
val hex_of_id : string -> string
