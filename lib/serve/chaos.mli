(** A seeded fault-injecting proxy between protocol clients and the
    model-query server — the drill harness's network.

    The proxy accepts client connections on [listen], dials [upstream]
    for each, and shuttles bytes both ways while rolling per-write
    fault dice from a deterministic splitmix64 stream ({!Xpdl_simhw.Rng},
    split per connection from [seed] — a seed replays the same fault
    schedule against the same traffic):

    {ul
    {- {e write splits} — relay at most [max_split] bytes at a time,
       tearing frames across packets (exercises incremental reassembly
       and, with a crash, torn WAL tails);}
    {- {e stalls} — freeze one direction for [stall_s] seconds
       (exercises client deadlines [XPDL906]);}
    {- {e resets} — close both sides mid-flight (exercises retry with
       reconnect, server-side session reclamation [XPDL708], and
       idempotent edit replay).}}

    Chances are per buffered write, in [0, 1].  The proxy is a
    transparent byte shuttle otherwise: no protocol knowledge, so it
    also stresses nothing but the transport contract. *)

type plan = {
  split_chance : float;
  max_split : int;  (** max bytes relayed by a split write *)
  stall_chance : float;
  stall_s : float;
  reset_chance : float;
}

(** 30 % splits of at most 7 bytes, 10 % stalls of 20 ms, 1 % resets. *)
val default_plan : plan

type t

(** Start proxying on [listen] towards [upstream] on a background
    domain.  [deadline_s] auto-stops the loop (CI hygiene). *)
val start :
  ?max_clients:int ->
  ?deadline_s:float ->
  seed:int ->
  plan:plan ->
  listen:Server.addr ->
  upstream:Server.addr ->
  unit ->
  t

(** The bound listening address (resolves port 0). *)
val sockaddr : t -> Unix.sockaddr

val running : t -> bool

(** Fault counters as a one-line JSON object: connections accepted and
    active, splits, stalls, resets, and the seed. *)
val stats_json : t -> string

(** Block until the loop exits (deadline, {!request_stop} or {!stop}). *)
val wait : t -> unit

(** Ask the loop to exit without waiting for it; safe to call from a
    signal handler (see {!Server.request_stop}). *)
val request_stop : t -> unit

(** Stop the loop, close every proxied connection, release the socket. *)
val stop : t -> unit
