(** Circuit-key cache of the proof service.

    Keys are cached under a 32-byte id that digests the backend, the
    circuit descriptor (strategy, dims, Fiat–Shamir challenge if any) and
    the full constraint system — CRPC circuits embed the challenge in
    their coefficients, so two proves with different statements get
    different ids and never share keys unsoundly.

    The cache holds {!Wire.key_file} records in a small in-memory LRU
    (default {!default_capacity} entries); when a spill directory is
    configured every generated key file is also written there, and
    evicted entries reload from disk without re-running setup. *)

module Api = Zkvc.Api

type t

val default_capacity : int

(** [create ?capacity ?dir ()] makes an empty cache. [dir] enables disk
    spill (created if missing). *)
val create : ?capacity:int -> ?dir:string -> unit -> t

(** Number of in-memory entries. *)
val length : t -> int

(** In-memory ids, most recently used first (for tests). *)
val ids : t -> string list

(** Deterministic cache id of a prepared statement under a backend: its
    strategy, dims and Fiat–Shamir challenge and the full constraint
    system. *)
val id_of :
  Api.backend ->
  Zkvc.Matmul_circuit.strategy ->
  Zkvc.Matmul_spec.dims ->
  Api.prepared ->
  string

(** [key_file backend strategy dims prep keys] is the key file of
    [prep]'s circuit under [keys], named by {!id_of}. [prep] must have
    been prepared for [strategy] at [dims]. *)
val key_file :
  Api.backend ->
  Zkvc.Matmul_circuit.strategy ->
  Zkvc.Matmul_spec.dims ->
  Api.prepared ->
  Api.keys ->
  Wire.key_file

(** [find_or_add t backend strategy dims prep ~make] returns the cached
    key file for [prep]'s circuit, loading it from disk or running
    [make] (which must produce keys for [prep.cs]) on a miss. The entry
    is promoted to most-recently-used; an insertion past capacity evicts
    the least recently used entry (still on disk if spill is on).

    Thread-safe with per-key single-flight: when several workers miss on
    the same id concurrently, exactly one runs [make] ([make] itself
    executes outside the cache lock); the others block until it settles
    and return its entry as [`Hit_mem]. If [make] raises, one blocked
    waiter takes over the slot and retries. *)
val find_or_add :
  t ->
  Api.backend ->
  Zkvc.Matmul_circuit.strategy ->
  Zkvc.Matmul_spec.dims ->
  Api.prepared ->
  make:(unit -> Api.keys) ->
  Wire.key_file * [ `Hit_mem | `Hit_disk | `Miss ]

(** Lookup by raw id (memory, then disk). Used by verify requests. *)
val find_by_id : t -> string -> Wire.key_file option
