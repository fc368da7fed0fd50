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

(** Socket address and domain of [addr] (host names resolved). *)
val resolve : addr -> Unix.sockaddr * Unix.socket_domain

(** The listening half of a select event loop, shared by the server and
    {!Chaos}: a nonblocking bound socket, a self-pipe stop signal, an
    optional deadline, and the lifecycle of the loop's domain. *)
module Listener : sig
  type t

  (** Bind and listen on [addr] (unlinking a stale unix socket path
      first) and ignore SIGPIPE.  [deadline_s] makes {!select} end the
      loop that many seconds from now. *)
  val create : ?deadline_s:float -> addr -> t

  (** The listening socket: readable when a client is waiting. *)
  val fd : t -> Unix.file_descr

  val sockaddr : t -> Unix.sockaddr

  (** True until the loop passed to {!spawn} returns. *)
  val running : t -> bool

  (** One [Unix.select] over the listening socket, the stop pipe and the
      given descriptors, waiting at most [tick] seconds.  [None] once
      the loop must exit (stop requested or deadline passed); an
      interrupted select returns [Some ([], [])]. *)
  val select :
    t ->
    tick:float ->
    Unix.file_descr list ->
    Unix.file_descr list ->
    (Unix.file_descr list * Unix.file_descr list) option

  (** Run the loop on a new domain. *)
  val spawn : t -> (unit -> unit) -> unit

  (** Block until the loop returns.  The domain is forgotten before the
      join, so a loop that raised re-raises once, not on every call. *)
  val wait : t -> unit

  (** One byte on the stop pipe; safe to call from a signal handler,
      which may run on any domain, the loop's included.  A no-op after
      {!stop}. *)
  val request_stop : t -> unit

  (** {!request_stop}, {!wait}, then close the sockets and unlink a
      unix socket path.  Idempotent. *)
  val stop : t -> unit
end

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
