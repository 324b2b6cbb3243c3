(** SHA-256 (FIPS 180-4), implemented from the specification because no
    cryptographic package is available offline. Used for Fiat–Shamir
    transcripts and commitments. *)

type ctx

val init : unit -> ctx

(** Feed more data; contexts are mutable. *)
val update : ctx -> Bytes.t -> unit

val update_string : ctx -> string -> unit

(** Finalise and return the 32-byte digest. The context must not be used
    afterwards. *)
val finalize : ctx -> Bytes.t

(** One-shot digest of a byte string. *)
val digest : Bytes.t -> Bytes.t

val digest_string : string -> Bytes.t

(** Lowercase hex of [digest_string]. *)
val hex_of_string : string -> string

val to_hex : Bytes.t -> string
