(** Seeded fault-injecting TCP/unix-socket proxy (see the interface). *)

module Rng = Xpdl_simhw.Rng

type plan = {
  split_chance : float;
  max_split : int;
  stall_chance : float;
  stall_s : float;
  reset_chance : float;
}

let default_plan =
  { split_chance = 0.3; max_split = 7; stall_chance = 0.1; stall_s = 0.02; reset_chance = 0.01 }

(* One proxied connection: a client-side and an upstream-side socket
   shuttling bytes both ways through bounded relay buffers, plus the
   per-connection fault state (its own rng stream and stall clocks). *)
type pipe = {
  buf : Buffer.t;  (** bytes received and not yet relayed *)
  mutable pos : int;  (** relay cursor into [buf] *)
  mutable stall_until : float;  (** absolute instant writes resume *)
  mutable src_eof : bool;  (** the feeding side reached EOF *)
}

type conn = {
  cid : int;
  down : Unix.file_descr;  (** the client's socket *)
  up : Unix.file_descr;  (** our socket to the real server *)
  c2s : pipe;  (** client -> server direction *)
  s2c : pipe;  (** server -> client direction *)
  rng : Rng.t;
  mutable dead : bool;
}

type t = {
  l : Server.Listener.t;
  upstream : Server.addr;
  plan : plan;
  seed : int;
  max_clients : int;
  mutable conns : conn list;
  mutable next_cid : int;
  rbuf : Bytes.t;
  (* fault counters, for [stats_json] *)
  mutable accepted : int;
  mutable splits : int;
  mutable stalls : int;
  mutable resets : int;
}

let sockaddr t = Server.Listener.sockaddr t.l
let running t = Server.Listener.running t.l

let fresh_pipe () = { buf = Buffer.create 4096; pos = 0; stall_until = 0.; src_eof = false }

let pending p = Buffer.length p.buf - p.pos

let close_conn t c =
  if not c.dead then begin
    c.dead <- true;
    (try Unix.close c.down with Unix.Unix_error _ -> ());
    (try Unix.close c.up with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c' -> c' != c) t.conns
  end

(* Injected connection reset: kill both sides at once, so the client
   sees ECONNRESET/EOF and the server reclaims the session. *)
let inject_reset t c =
  t.resets <- t.resets + 1;
  close_conn t c

let accept_conn t =
  match Unix.accept (Server.Listener.fd t.l) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | down, _peer ->
      if List.length t.conns >= t.max_clients then Unix.close down
      else begin
        match Client.open_fd t.upstream with
        | exception Unix.Unix_error _ -> Unix.close down
        | up ->
            Unix.set_nonblock down;
            Unix.set_nonblock up;
            let cid = t.next_cid in
            t.next_cid <- cid + 1;
            t.accepted <- t.accepted + 1;
            let c =
              {
                cid;
                down;
                up;
                c2s = fresh_pipe ();
                s2c = fresh_pipe ();
                rng = Rng.split (Rng.create ~seed:t.seed) (Fmt.str "conn-%d" cid);
                dead = false;
              }
            in
            t.conns <- c :: t.conns
      end

(* Read whatever arrived on [src] into the pipe; a read error or EOF
   marks the pipe draining (relay what is buffered, then close). *)
let pump_in t c p src =
  match Unix.read src t.rbuf 0 (Bytes.length t.rbuf) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> close_conn t c
  | 0 -> p.src_eof <- true
  | n -> Buffer.add_subbytes p.buf t.rbuf 0 n

(* Relay buffered bytes to [dst], rolling the fault dice per write:
   maybe reset the whole connection, maybe stall the direction, maybe
   split the write to a few bytes (tears frames across packets — the
   torn-write generator for the WAL/recovery drill). *)
let pump_out t c p dst =
  let now = Unix.gettimeofday () in
  if (not c.dead) && now >= p.stall_until && pending p > 0 then begin
    if Rng.float c.rng < t.plan.reset_chance then inject_reset t c
    else if Rng.float c.rng < t.plan.stall_chance then begin
      t.stalls <- t.stalls + 1;
      p.stall_until <- now +. t.plan.stall_s
    end
    else begin
      let want = pending p in
      let want =
        if Rng.float c.rng < t.plan.split_chance && t.plan.max_split > 0 then begin
          t.splits <- t.splits + 1;
          min want (1 + Rng.int c.rng t.plan.max_split)
        end
        else want
      in
      match Unix.write_substring dst (Buffer.contents p.buf) p.pos want with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error (_, _, _) -> close_conn t c
      | written ->
          p.pos <- p.pos + written;
          if pending p = 0 then begin
            Buffer.clear p.buf;
            p.pos <- 0
          end
    end
  end

let rec loop t =
  let readables =
    List.concat_map
      (fun c -> (if c.c2s.src_eof then [] else [ c.down ]) @ if c.s2c.src_eof then [] else [ c.up ])
      t.conns
  in
  let writables =
    List.concat_map
      (fun c ->
        (if pending c.c2s > 0 then [ c.up ] else []) @ if pending c.s2c > 0 then [ c.down ] else [])
      t.conns
  in
  (* a short tick so stalled directions resume without new IO *)
  match Server.Listener.select t.l ~tick:0.01 readables writables with
  | None -> List.iter (fun c -> close_conn t c) t.conns
  | Some (rs, ws) ->
      if List.mem (Server.Listener.fd t.l) rs then accept_conn t;
      List.iter
        (fun c ->
          if not c.dead then begin
            if List.mem c.down rs then pump_in t c c.c2s c.down;
            if (not c.dead) && List.mem c.up rs then pump_in t c c.s2c c.up
          end)
        t.conns;
      List.iter
        (fun c ->
          if not c.dead then begin
            if List.mem c.up ws || pending c.c2s > 0 then pump_out t c c.c2s c.up;
            if (not c.dead) && (List.mem c.down ws || pending c.s2c > 0) then
              pump_out t c c.s2c c.down
          end)
        t.conns;
      (* a direction that drained after its source EOF closes the whole
         connection (request/response traffic does not use half-close) *)
      List.iter
        (fun c ->
          if
            (not c.dead)
            && ((c.c2s.src_eof && pending c.c2s = 0) || (c.s2c.src_eof && pending c.s2c = 0))
          then close_conn t c)
        t.conns;
      loop t

let stats_json t =
  Fmt.str
    "{\"accepted\":%d,\"active\":%d,\"splits\":%d,\"stalls\":%d,\"resets\":%d,\"seed\":%d}"
    t.accepted (List.length t.conns) t.splits t.stalls t.resets t.seed

let start ?(max_clients = 64) ?deadline_s ~seed ~plan ~listen ~upstream () =
  let t =
    {
      l = Server.Listener.create ?deadline_s listen;
      upstream;
      plan;
      seed;
      max_clients;
      conns = [];
      next_cid = 1;
      rbuf = Bytes.create 65536;
      accepted = 0;
      splits = 0;
      stalls = 0;
      resets = 0;
    }
  in
  Server.Listener.spawn t.l (fun () -> loop t);
  t

let wait t = Server.Listener.wait t.l
let request_stop t = Server.Listener.request_stop t.l
let stop t = Server.Listener.stop t.l
