(** Blocking client for the proof service: one connection, synchronous
    request/response frames. Not thread-safe — use one [t] per thread.

    Every request is sent with a trace block carrying a fresh 16-byte
    request id (see {!last_request_id}). When the [Zkvc_obs] sink is
    enabled, each request is recorded as a [client.request] span tagged
    with that id, and the server's returned timing block is stitched
    into the span tree as external spans ([server.queue.wait],
    [server.exec] and the server's own phase spans) on a synthetic
    trace track — a single Chrome trace then shows the full
    cross-process request. *)

type t

(** Connect to a server's Unix-domain socket. [origin] labels this
    client in the server's trace context (default ["pid:<pid>"]).
    Raises [Unix.Unix_error] when nothing listens there. *)
val connect : ?origin:string -> string -> t

val close : t -> unit

(** Send one request and block for the matching response. [Error] is a
    transport/framing failure, or [Malformed] for a [Batch_ok] whose
    verdict count differs from the number of members sent; a server-side
    failure arrives as [Ok (Error _)] (a {!Wire.response}). *)
val request : t -> Wire.request -> (Wire.response, Wire.error) result

(** [request] but transport errors and server [Error] responses raise
    [Failure] with a readable message. *)
val request_exn : t -> Wire.request -> Wire.response

(** The server timing block of the most recent response, if it carried
    one. *)
val last_timing : t -> Wire.timing option

(** The 16 raw id bytes sent with the most recent request
    ({!Wire.hex_of_id} renders them). *)
val last_request_id : t -> string option

(** Run [f] over a fresh connection, closing it afterwards. *)
val with_connection : ?origin:string -> string -> (t -> 'a) -> 'a
