(** A blocking protocol client (load generator, tests, tools).

    One connected socket with request/response framing on top of
    {!Frame}, plus the resilience layer the crash drills exercise:
    per-request deadlines, and a retry loop with exponential backoff and
    deterministic jitter that reconnects between attempts.  {!request}
    demultiplexes server-initiated [Event] pushes (which interleave with
    replies on a subscribed connection) into a local queue read by
    {!events}.

    Retrying an [Edit] is only safe when it carries a request id
    ({!Protocol.request.Edit}): the hub's dedup window then answers a
    retransmit of an acknowledged edit with the original revision
    instead of applying it twice. *)

open Xpdl_core

type t

exception Client_error of Diagnostic.t

(** A blocking socket connected to [addr] (no protocol state).  Raises
    [Unix.Unix_error]. *)
val open_fd : Server.addr -> Unix.file_descr

(** Connect to a server address ([SIGPIPE] is set to ignore, so a write
    to a reset peer fails with a catchable error instead of killing the
    process).  Raises [Unix.Unix_error]. *)
val connect : Server.addr -> t

(** Close the current socket and dial the server again.  The new
    connection is a new session: pins, subscription and undelivered
    events of the old one are gone.  Raises [Unix.Unix_error] when the
    server is unreachable. *)
val reconnect : t -> unit

(** Send one request and block for its (non-event) response.  [Event]
    frames received while waiting are queued.  [timeout] (seconds)
    bounds the wait for the response: on expiry the call raises
    {!Client_error} with [XPDL906] and the connection may hold a
    half-received frame — {!reconnect} before reusing it.  Also raises
    {!Client_error} on a framing violation ([XPDL700]/[XPDL701]) or
    unexpected EOF, and {!Frame.Closed} ([XPDL708]) when the peer reset
    the connection mid-write. *)
val request : ?timeout:float -> t -> Protocol.request -> Protocol.response

(** {1 Retries} *)

type retry_policy = {
  attempts : int;  (** total tries, including the first (min 1) *)
  deadline_s : float option;  (** per-attempt response deadline *)
  backoff_base_s : float;  (** delay before the first retry *)
  backoff_factor : float;  (** delay multiplier per further retry *)
  backoff_jitter : float;
      (** relative jitter: each delay is scaled by a deterministic
          uniform factor in [1-j, 1+j] *)
  retry_seed : int;  (** seed of the jitter stream (reproducible runs) *)
}

(** 5 attempts, 2 s deadline, 50 ms base delay doubling with 25 %
    jitter from seed 42. *)
val default_retry : retry_policy

(** Like {!request}, but on a transport-level failure (deadline
    [XPDL906], reset [XPDL708], truncated frame [XPDL700], refused
    connection) sleep the jittered backoff, {!reconnect}, and try again
    up to [attempts] times.  Raises {!Client_error} ([XPDL906]) when the
    budget is exhausted.  Protocol-level [Err] responses are returned,
    never retried. *)
val request_retry : ?policy:retry_policy -> t -> Protocol.request -> Protocol.response

(** {1 Events} *)

(** Events received so far, oldest first; clears the queue. *)
val events : t -> Protocol.event list

(** Block until at least [n] events are queued (reading frames), then
    return all queued events. *)
val wait_events : t -> int -> Protocol.event list

val close : t -> unit
