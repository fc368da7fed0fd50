(** The concurrent model-query server: socket transport around a
    {!Hub}.

    A single event-loop domain multiplexes every connection with
    [Unix.select] over nonblocking descriptors: partial reads feed each
    connection's {!Frame.decoder}, complete frames dispatch through
    {!Hub.handle_frame}, and responses (plus subscription [Event]
    pushes) drain through per-connection outboxes that tolerate short
    writes.  Keeping all hub traffic on the one loop domain is what
    makes the hub's session logic safe without locks; the {!Xpdl_query}
    handles it shares are domain-safe for the read side regardless.

    {!start} binds and listens {e before} spawning the loop domain, so a
    client may connect the moment it returns. *)

type addr =
  | Unix_socket of string  (** filesystem path; unlinked on bind and on {!stop} *)
  | Tcp of string * int  (** host, port (0 picks an ephemeral port) *)

type t

(** Bind, listen, and spawn the event-loop domain.

    [max_clients] (default 64) bounds simultaneous connections — excess
    accepts are closed immediately.  [deadline_s] stops the server that
    many seconds after start (a safety net for CI smoke runs).  Raises
    [Unix.Unix_error] if the address cannot be bound. *)
val start : ?max_clients:int -> ?deadline_s:float -> addr -> Hub.t -> t

(** The bound address ([Tcp] with the actual port when 0 was asked). *)
val sockaddr : t -> Unix.sockaddr

val hub : t -> Hub.t

(** True until the loop domain exits (deadline hit or {!stop}). *)
val running : t -> bool

(** Block until the loop domain exits on its own. *)
val wait : t -> unit

(** Ask the loop to exit (one byte on its self-pipe) without waiting for
    it.  Safe to call from a signal handler, which may run on any
    domain, the loop's included — unlike [Sys.catch_break], whose
    [Sys.Break] can escape the loop domain.  A no-op after {!stop}. *)
val request_stop : t -> unit

(** Ask the loop to exit (self-pipe), join it, close every connection,
    and release the socket.  Idempotent. *)
val stop : t -> unit
