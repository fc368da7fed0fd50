(** select-based socket transport for the hub (see the interface). *)

type addr = Unix_socket of string | Tcp of string * int

(* One connection: incremental frame reassembly on the way in, an
   outbox (buffer + cursor) surviving short writes on the way out. *)
type conn = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  out : Buffer.t;
  mutable out_pos : int;
  session : Hub.session;
  mutable closing : bool;  (** flush the outbox, then close *)
}

(* ------------------------------------------------------------------ *)
(* listener lifecycle, shared with the chaos proxy *)

let resolve = function
  | Unix_socket path -> (Unix.ADDR_UNIX path, Unix.PF_UNIX)
  | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      (Unix.ADDR_INET (ip, port), Unix.PF_INET)

module Listener = struct
  type t = {
    listen_fd : Unix.file_descr;
    bound : Unix.sockaddr;
    stop_r : Unix.file_descr;  (** self-pipe: loop exit signal *)
    stop_w : Unix.file_descr;
    deadline : float option;  (** absolute, [Unix.gettimeofday] clock *)
    cleanup : unit -> unit;  (** unlink a unix-domain socket path *)
    mutable alive : bool;
    mutable domain : unit Domain.t option;
    mutable stopped : bool;
  }

  let create ?deadline_s addr =
    (* a peer that resets mid-write must cost one connection, not a
       process-killing SIGPIPE *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    let cleanup () =
      match addr with
      | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
      | Tcp _ -> ()
    in
    cleanup ();
    let sa, dom = resolve addr in
    let listen_fd = Unix.socket dom Unix.SOCK_STREAM 0 in
    (match addr with Tcp _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true | _ -> ());
    Unix.bind listen_fd sa;
    Unix.listen listen_fd 64;
    Unix.set_nonblock listen_fd;
    let stop_r, stop_w = Unix.pipe () in
    {
      listen_fd;
      bound = Unix.getsockname listen_fd;
      stop_r;
      stop_w;
      deadline = Option.map (fun s -> Unix.gettimeofday () +. s) deadline_s;
      cleanup;
      alive = true;
      domain = None;
      stopped = false;
    }

  let fd l = l.listen_fd
  let sockaddr l = l.bound
  let running l = l.alive

  let select l ~tick readables writables =
    match l.deadline with
    | Some d when Unix.gettimeofday () >= d -> None
    | _ -> (
        match Unix.select (l.stop_r :: l.listen_fd :: readables) writables [] tick with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> Some ([], [])
        | rs, _, _ when List.mem l.stop_r rs -> None
        | rs, ws, _ -> Some (rs, ws))

  let spawn l loop =
    l.domain <-
      Some
        (Domain.spawn (fun () ->
             loop ();
             l.alive <- false))

  (* Cleared before joining: a join that raises (the loop died of an
     exception) must not be repeated by a later [stop], which would
     re-raise the same exception. *)
  let wait l =
    match l.domain with
    | Some d ->
        l.domain <- None;
        Domain.join d
    | None -> ()

  let request_stop l =
    if not l.stopped then
      try ignore (Unix.write_substring l.stop_w "x" 0 1) with Unix.Unix_error _ -> ()

  let stop l =
    if not l.stopped then begin
      request_stop l;
      l.stopped <- true;
      wait l;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ l.listen_fd; l.stop_r; l.stop_w ];
      l.cleanup ()
    end
end

type t = {
  hub : Hub.t;
  l : Listener.t;
  max_clients : int;
  mutable conns : conn list;
  rbuf : Bytes.t;  (** loop-domain read scratch (one loop per server) *)
}

let sockaddr t = Listener.sockaddr t.l
let hub t = t.hub
let running t = Listener.running t.l

(* ------------------------------------------------------------------ *)
(* per-connection IO *)

let enqueue c payload =
  Buffer.add_string c.out (Frame.encode payload)

let outbox_empty c = c.out_pos >= Buffer.length c.out

let close_conn t c =
  Hub.close_session t.hub c.session;
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  t.conns <- List.filter (fun c' -> c' != c) t.conns

(* Push queued subscription events out as [Event] frames. *)
let flush_events c =
  List.iter
    (fun ev -> enqueue c (Protocol.encode_response (Protocol.Event ev)))
    (Hub.drain_events c.session)

let handle_readable t c =
  match Unix.read c.fd t.rbuf 0 (Bytes.length t.rbuf) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> close_conn t c
  | 0 ->
      (* EOF: mid-frame truncation is the client's problem now — just
         release the session *)
      close_conn t c
  | n ->
      Frame.feed c.dec ~len:n (Bytes.unsafe_to_string t.rbuf);
      let rec drain () =
        match Frame.next c.dec with
        | Ok (Some payload) ->
            enqueue c (Hub.handle_frame t.hub c.session payload);
            drain ()
        | Ok None -> ()
        | Error d ->
            (* oversized announced length: answer once, then hang up *)
            enqueue c
              (Protocol.encode_response
                 (Protocol.Err { code = d.Xpdl_core.Diagnostic.code; msg = d.message }));
            c.closing <- true
      in
      drain ()

let handle_writable t c =
  let len = Buffer.length c.out - c.out_pos in
  if len > 0 then begin
    match Unix.write_substring c.fd (Buffer.contents c.out) c.out_pos len with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> close_conn t c
    | written ->
        c.out_pos <- c.out_pos + written;
        if outbox_empty c then begin
          Buffer.clear c.out;
          c.out_pos <- 0;
          if c.closing then close_conn t c
        end
  end

let accept_conn t =
  match Unix.accept (Listener.fd t.l) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | fd, _peer ->
      if List.length t.conns >= t.max_clients then Unix.close fd
      else begin
        Unix.set_nonblock fd;
        let c =
          {
            fd;
            dec = Frame.decoder ();
            out = Buffer.create 4096;
            out_pos = 0;
            session = Hub.session t.hub;
            closing = false;
          }
        in
        t.conns <- c :: t.conns
      end

(* ------------------------------------------------------------------ *)
(* event loop *)

let rec loop t =
  let writables =
    List.filter_map (fun c -> if outbox_empty c then None else Some c.fd) t.conns
  in
  match Listener.select t.l ~tick:0.05 (List.map (fun c -> c.fd) t.conns) writables with
  | None -> List.iter (fun c -> close_conn t c) t.conns
  | Some (rs, ws) ->
      if List.mem (Listener.fd t.l) rs then accept_conn t;
      List.iter (fun c -> if List.mem c.fd rs then handle_readable t c) t.conns;
      (* edits dispatched above may have published events to any
         subscribed session *)
      List.iter flush_events t.conns;
      List.iter (fun c -> if List.mem c.fd ws then handle_writable t c) t.conns;
      (* outboxes filled this round get their first write without
         waiting for the next select tick *)
      List.iter
        (fun c -> if (not (List.mem c.fd ws)) && not (outbox_empty c) then handle_writable t c)
        t.conns;
      loop t

(* ------------------------------------------------------------------ *)
(* lifecycle *)

let start ?(max_clients = 64) ?deadline_s addr hub =
  let l = Listener.create ?deadline_s addr in
  let t = { hub; l; max_clients; conns = []; rbuf = Bytes.create 65536 } in
  Listener.spawn t.l (fun () -> loop t);
  t

let wait t = Listener.wait t.l
let request_stop t = Listener.request_stop t.l
let stop t = Listener.stop t.l
