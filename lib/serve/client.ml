(** Blocking protocol client (see the interface). *)

open Xpdl_core
module Rng = Xpdl_simhw.Rng

type t = {
  addr : Server.addr;
  mutable fd : Unix.file_descr;
  mutable dec : Frame.decoder;
  pending : Protocol.event Queue.t;
  mutable closed : bool;
}

exception Client_error of Diagnostic.t

let fail d = raise (Client_error d)

let deadline_exceeded () =
  Diagnostic.error ~code:"XPDL906" "client request deadline exceeded"

(* A write to a freshly reset peer must surface as a coded failure the
   retry loop can catch, not a process-killing SIGPIPE. *)
let ignore_sigpipe () =
  match Sys.os_type with
  | "Unix" -> ( try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ())
  | _ -> ()

let open_fd addr =
  let sa, dom = Server.resolve addr in
  let fd = Unix.socket dom Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sa
   with e ->
     Unix.close fd;
     raise e);
  fd

let connect addr =
  ignore_sigpipe ();
  { addr; fd = open_fd addr; dec = Frame.decoder (); pending = Queue.create (); closed = false }

(* Drop the current socket and dial the server again.  Buffered partial
   input and undelivered events die with the old connection: a new
   connection is a new session (fresh pins, fresh subscription). *)
let reconnect t =
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  t.fd <- open_fd t.addr;
  t.dec <- Frame.decoder ();
  Queue.clear t.pending

(* ------------------------------------------------------------------ *)
(* deadline-aware response reads *)

let read_chunk = 65536

(* Pull one decoded response, reading more bytes as needed.  [deadline]
   is an absolute [Unix.gettimeofday] instant: when it passes while we
   are still waiting for bytes, the read fails with [XPDL906] and the
   connection is left with a possibly half-received frame (the caller
   must reconnect before reusing it). *)
let read_response ?deadline t =
  let buf = Bytes.create read_chunk in
  let rec pull () =
    match Frame.next t.dec with
    | Error d -> fail d
    | Ok (Some payload) -> (
        match Protocol.decode_response payload with Ok resp -> resp | Error d -> fail d)
    | Ok None ->
        (match deadline with
        | None -> ()
        | Some dl ->
            let remaining = dl -. Unix.gettimeofday () in
            if remaining <= 0. then fail (deadline_exceeded ())
            else
              let rec wait left =
                match Unix.select [ t.fd ] [] [] left with
                | [], _, _ -> fail (deadline_exceeded ())
                | _ -> ()
                | exception Unix.Unix_error (Unix.EINTR, _, _) ->
                    let left = dl -. Unix.gettimeofday () in
                    if left <= 0. then fail (deadline_exceeded ()) else wait left
              in
              wait remaining);
        (match Unix.read t.fd buf 0 read_chunk with
        | 0 ->
            if Frame.mid_frame t.dec then
              fail (Diagnostic.error ~code:"XPDL700" "connection closed in the middle of a frame")
            else
              fail
                (Diagnostic.error ~code:"XPDL700" "connection closed while awaiting a response")
        | n -> Frame.feed t.dec ~len:n (Bytes.unsafe_to_string buf)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
            fail (Diagnostic.error ~code:"XPDL708" "connection reset by peer during a read"));
        pull ()
  in
  pull ()

let rec await_reply ?deadline t =
  match read_response ?deadline t with
  | Protocol.Event ev ->
      Queue.push ev t.pending;
      await_reply ?deadline t
  | resp -> resp

let request ?timeout t req =
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout in
  Frame.write_frame t.fd (Protocol.encode_request req);
  await_reply ?deadline t

(* ------------------------------------------------------------------ *)
(* retries *)

type retry_policy = {
  attempts : int;
  deadline_s : float option;
  backoff_base_s : float;
  backoff_factor : float;
  backoff_jitter : float;
  retry_seed : int;
}

let default_retry =
  {
    attempts = 5;
    deadline_s = Some 2.0;
    backoff_base_s = 0.05;
    backoff_factor = 2.0;
    backoff_jitter = 0.25;
    retry_seed = 42;
  }

(* Transport-level failures worth another attempt: timeouts, resets,
   truncated frames, and a server that is momentarily down ([ECONNREFUSED]
   or, for unix sockets, [ENOENT] while it re-binds). *)
let retryable = function
  | Client_error d -> (
      match d.Diagnostic.code with "XPDL700" | "XPDL708" | "XPDL906" -> true | _ -> false)
  | Frame.Closed _ -> true
  | Unix.Unix_error
      ((Unix.ECONNRESET | Unix.EPIPE | Unix.ECONNREFUSED | Unix.ENOENT | Unix.ENOTCONN), _, _) ->
      true
  | _ -> false

(* Jitter symmetric around the exponential base (factor 1 - j + 2j*u),
   so a retry may come sooner than the base: this is the client's retry
   timing.  [Xpdl_microbench.Resilient.backoff_schedule] keeps a
   one-sided 1 + j*u because its delays are pinned in replayable health
   reports; merging the two would change one or the other. *)
let backoff_delay policy rng k =
  let base = policy.backoff_base_s *. (policy.backoff_factor ** float_of_int k) in
  let j = policy.backoff_jitter in
  if j <= 0. then base else base *. (1. -. j +. (2. *. j *. Rng.float rng))

let request_retry ?(policy = default_retry) t req =
  let rng = Rng.create ~seed:policy.retry_seed in
  let attempts = max 1 policy.attempts in
  let rec attempt k last =
    if k >= attempts then
      fail
        (Diagnostic.error ~code:"XPDL906" "retry budget exhausted after %d attempts (last: %s)"
           attempts last)
    else
      match
        if k > 0 then begin
          Unix.sleepf (backoff_delay policy rng (k - 1));
          (* the old connection may be half-dead or mid-frame: start clean *)
          reconnect t
        end;
        request ?timeout:policy.deadline_s t req
      with
      | resp -> resp
      | exception e when retryable e -> attempt (k + 1) (Printexc.to_string e)
  in
  attempt 0 "no attempt made"

let events t =
  let evs = List.of_seq (Queue.to_seq t.pending) in
  Queue.clear t.pending;
  evs

let wait_events t n =
  while Queue.length t.pending < n do
    match read_response t with
    | Protocol.Event ev -> Queue.push ev t.pending
    | resp ->
        fail
          (Diagnostic.error ~code:"XPDL703" "expected an event, got %a" Protocol.pp_response resp)
  done;
  events t

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
