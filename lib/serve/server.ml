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

type t = {
  hub : Hub.t;
  listen_fd : Unix.file_descr;
  bound : Unix.sockaddr;
  stop_r : Unix.file_descr;  (** self-pipe: loop exit signal *)
  stop_w : Unix.file_descr;
  max_clients : int;
  deadline : float option;  (** absolute, [Unix.gettimeofday] clock *)
  cleanup : unit -> unit;  (** unlink a unix-domain socket path *)
  mutable conns : conn list;
  mutable alive : bool;
  mutable domain : unit Domain.t option;
  mutable stopped : bool;
  rbuf : Bytes.t;  (** loop-domain read scratch (one loop per server) *)
}

let sockaddr t = t.bound
let hub t = t.hub
let running t = t.alive

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
  match Unix.accept t.listen_fd with
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

let loop t =
  let stop = ref false in
  while not !stop do
    (match t.deadline with Some d when Unix.gettimeofday () >= d -> stop := true | _ -> ());
    if not !stop then begin
      let readables = (t.stop_r :: t.listen_fd :: List.map (fun c -> c.fd) t.conns) in
      let writables =
        List.filter_map (fun c -> if outbox_empty c then None else Some c.fd) t.conns
      in
      match Unix.select readables writables [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | rs, ws, _ ->
          if List.mem t.stop_r rs then stop := true
          else begin
            if List.mem t.listen_fd rs then accept_conn t;
            List.iter
              (fun c -> if List.mem c.fd rs then handle_readable t c)
              t.conns;
            (* edits dispatched above may have published events to any
               subscribed session *)
            List.iter flush_events t.conns;
            List.iter (fun c -> if List.mem c.fd ws then handle_writable t c) t.conns;
            (* outboxes filled this round get their first write without
               waiting for the next select tick *)
            List.iter
              (fun c -> if (not (List.mem c.fd ws)) && not (outbox_empty c) then handle_writable t c)
              t.conns
          end
    end
  done;
  List.iter (fun c -> close_conn t c) t.conns;
  t.alive <- false

(* ------------------------------------------------------------------ *)
(* lifecycle *)

let start ?(max_clients = 64) ?deadline_s addr hub =
  (* a peer that resets mid-write must cost one connection (close +
     session pin reclamation), not a process-killing SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let domain_sock, sa, cleanup =
    match addr with
    | Unix_socket path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        ( Unix.PF_UNIX,
          Unix.ADDR_UNIX path,
          fun () -> try Unix.unlink path with Unix.Unix_error _ -> () )
    | Tcp (host, port) ->
        let ip = try Unix.inet_addr_of_string host with Failure _ ->
          (Unix.gethostbyname host).Unix.h_addr_list.(0)
        in
        (Unix.PF_INET, Unix.ADDR_INET (ip, port), fun () -> ())
  in
  let listen_fd = Unix.socket domain_sock Unix.SOCK_STREAM 0 in
  (match addr with Tcp _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true | _ -> ());
  Unix.bind listen_fd sa;
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let stop_r, stop_w = Unix.pipe () in
  let t =
    {
      hub;
      listen_fd;
      bound = Unix.getsockname listen_fd;
      stop_r;
      stop_w;
      max_clients;
      deadline = Option.map (fun s -> Unix.gettimeofday () +. s) deadline_s;
      cleanup;
      conns = [];
      alive = true;
      domain = None;
      stopped = false;
      rbuf = Bytes.create 65536;
    }
  in
  t.domain <- Some (Domain.spawn (fun () -> loop t));
  t

(* Cleared before joining: a join that raises (the loop died of an
   exception) must not be repeated by a later [stop], which would
   re-raise the same exception. *)
let wait t =
  match t.domain with
  | Some d ->
      t.domain <- None;
      Domain.join d
  | None -> ()

let request_stop t =
  if not t.stopped then
    try ignore (Unix.write_substring t.stop_w "x" 0 1) with Unix.Unix_error _ -> ()

let stop t =
  if not t.stopped then begin
    request_stop t;
    t.stopped <- true;
    wait t;
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ t.listen_fd; t.stop_r; t.stop_w ];
    t.cleanup ()
  end
