(** Serve workloads: a child [xpdltool serve liu_gpu_server] — the
    system under test — driven from this process by a closed loop of two
    client connections on [Xpdl_serve.Client], one domain each.  The
    clients stand for runtimes that wait for each answer, hence the
    closed loop.  After a final [Stats] request the server is stopped
    with SIGKILL: [xpdltool serve] does not yet shut down cleanly on
    SIGINT. *)

open Xpdl_core
module P = Xpdl_serve.Protocol
module Client = Xpdl_serve.Client
module Server = Xpdl_serve.Server
module Hub = Xpdl_serve.Hub
module Store = Xpdl_store.Store
module Wal = Xpdl_store.Wal
module Rng = Xpdl_simhw.Rng

let system = "liu_gpu_server"
let clients = 2

type mix = {
  durable : bool;  (** serve over a WAL with [--fsync always], edits carry request ids *)
  weights : int array;  (** getter, derived, edit, pinned round-trip *)
  targets : string list;  (** edit targets, resolved over the wire with [ipath:] *)
}

let mixed = { durable = false; weights = [| 60; 25; 10; 5 |]; targets = [ "SM12" ] }
let durable = { durable = true; weights = [| 40; 10; 50; 0 |]; targets = [ "SM12"; "SM1"; "gpu1" ] }
let classes = [| "getter"; "derived"; "edit"; "pinned" |]
let getters = [| "size"; "multi-node"; "software"; "degraded" |]
let derived = [| "cores"; "static-power"; "memory"; "cuda-devices" |]
let edit_values = [| "1"; "2"; "5"; "11" |]

(** One op of a client's stream; a pinned round trip (Pin, Query at the
    pinned revision, Unpin) counts as one op. *)
type op = Plain of int * P.request  (** class index, request *) | Pinned of string

let op_class = function Plain (c, _) -> c | Pinned _ -> 3
let pick rng a = a.(Rng.int rng (Array.length a))

(* Client [idx]'s request stream: a pure function of the seed, so the
   in-process replay regenerates exactly what went over the wire. *)
let stream mix paths ~seed idx =
  let rng = Rng.split (Rng.create ~seed) (Fmt.str "client-%d" idx) in
  let w = mix.weights and seq = ref 0 in
  let total = Array.fold_left ( + ) 0 w in
  fun () ->
    let r = Rng.int rng total in
    if r < w.(0) then Plain (0, P.Query { rev = -1; q = pick rng getters })
    else if r < w.(0) + w.(1) then Plain (1, P.Query { rev = -1; q = pick rng derived })
    else if r < w.(0) + w.(1) + w.(2) then begin
      incr seq;
      let path = pick rng paths in
      let req_id = if mix.durable then Some ((idx lsl 32) lor !seq) else None in
      Plain
        ( 2,
          P.Edit
            { path; key = "static_power"; value = pick rng edit_values; unit_spelling = None; req_id }
        )
    end
    else Pinned (pick rng derived)

let is_ok = function P.Ok _ -> true | _ -> false

(* Perform one op through [send class request]; true iff every answer
   is [Ok]. *)
let perform send = function
  | Plain (c, req) -> is_ok (send c req)
  | Pinned q -> (
      match send 3 P.Pin with
      | P.Ok (P.Int rev) ->
          let answered = is_ok (send 3 (P.Query { rev; q })) in
          is_ok (send 3 (P.Unpin rev)) && answered
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* The server process *)

type server = { pid : int; addr : Server.addr; mutable alive : bool }

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let kill srv =
  if srv.alive then begin
    srv.alive <- false;
    (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap srv.pid
  end

let spawn (cfg : Bench.config) ~sock ~wal =
  (* the deadline only stops a server this process failed to kill *)
  let args =
    [ cfg.xpdltool; "serve"; "--socket"; sock; "--deadline"; Fmt.str "%g" (cfg.seconds +. 120.) ]
    @ (match wal with
      | Some dir -> [ "--wal"; dir; "--fsync"; "always"; "--checkpoint-every"; "1024" ]
      | None -> [])
    @ [ system ]
  in
  let log =
    Unix.openfile (Filename.concat cfg.work "server.log") [ Unix.O_WRONLY; O_CREAT; O_APPEND ] 0o644
  in
  let stdin, eof = Unix.pipe ~cloexec:true () in
  Unix.close eof;
  let pid = Unix.create_process cfg.xpdltool (Array.of_list args) stdin log log in
  Unix.close log;
  Unix.close stdin;
  { pid; addr = Server.Unix_socket sock; alive = true }

let await_ping srv =
  let t0 = Bench.now () in
  let rec go () =
    match Client.connect srv.addr with
    | cl ->
        let answer = Client.request ~timeout:10. cl P.Ping in
        Client.close cl;
        if not (is_ok answer) then failwith "the server answered Ping with an error"
    | exception Unix.Unix_error _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
        | 0, _ -> ()
        | _ ->
            srv.alive <- false;
            failwith "the server exited during start-up (see server.log)");
        if Bench.now () -. t0 > 60. then failwith "the server did not answer Ping within 60 s";
        Unix.sleepf 0.001;
        go ()
  in
  go ()

let request srv req =
  let cl = Client.connect srv.addr in
  Fun.protect ~finally:(fun () -> Client.close cl) (fun () -> Client.request ~timeout:10. cl req)

(* A field of the hub's flat, one-line [Stats] JSON. *)
let field json key =
  let pat = Fmt.str "%S:" key in
  let n = String.length json and m = String.length pat in
  let rec find i =
    if i + m > n then failwith ("no " ^ key ^ " in the server stats")
    else if String.equal (String.sub json i m) pat then i + m
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while !stop < n && json.[!stop] <> ',' && json.[!stop] <> '}' do
    incr stop
  done;
  String.concat "" (String.split_on_char '"' (String.sub json start (!stop - start)))

let stats srv =
  match request srv P.Stats with
  | P.Ok (P.Str json) -> json
  | r -> Fmt.failwith "Stats answered %a" P.pp_response r

let resolve srv names =
  Array.of_list
    (List.map
       (fun name ->
         match request srv (P.Query { rev = -1; q = "ipath:" ^ name }) with
         | P.Ok (P.Strs steps) -> List.map int_of_string steps
         | r -> Fmt.failwith "ipath:%s answered %a" name P.pp_response r)
       names)

(* The model [xpdltool serve] serves: the composed, un-bootstrapped system. *)
let served_model () =
  match Xpdl_repo.Repo.compose_by_name (Xpdl_repo.Repo.load_bundled ()) system with
  | Ok c -> c.Xpdl_repo.Repo.model
  | Error msg -> failwith msg

(* ------------------------------------------------------------------ *)
(* The load *)

type client_result = {
  lat : float array;  (** seconds per op *)
  cls : float array;  (** class index per op *)
  ok : int;
  acked : int;  (** edits answered [Ok] *)
}

let client_loop srv mix paths ~seed ~deadline idx =
  let next = stream mix paths ~seed idx in
  let cl = Client.connect srv.addr in
  let lat = Bench.Samples.create () and cls = Bench.Samples.create () in
  let ok = ref 0 and acked = ref 0 and alive = ref true in
  while !alive && Bench.now () < deadline do
    let op = next () in
    let t0 = Bench.now () in
    let good =
      match perform (fun _ req -> Client.request cl req) op with
      | b -> b
      | exception e ->
          Fmt.epr "xpdlbench: client %d: %s@." idx (Printexc.to_string e);
          alive := false;
          false
    in
    Bench.Samples.add lat (Bench.now () -. t0);
    Bench.Samples.add cls (float_of_int (op_class op));
    if good then begin
      incr ok;
      if op_class op = 2 then incr acked
    end
  done;
  Client.close cl;
  { lat = Bench.Samples.to_array lat; cls = Bench.Samples.to_array cls; ok = !ok; acked = !acked }

(* Drive the server for [seconds], then check it: every op answered
   [Ok]; acknowledged edits equal the server's [applied_edits] delta;
   and, when durable, a read-only recovery of the killed server's WAL
   lands on its last [Stats] revision with the same model fingerprint.
   Returns the client results, the run's wall time and the server's
   peak RSS. *)
let drive tally srv ~wal mix paths ~seed ~seconds =
  let before = stats srv in
  let t0 = Bench.now () in
  let results =
    List.init clients (fun idx ->
        Domain.spawn (fun () -> client_loop srv mix paths ~seed ~deadline:(t0 +. seconds) idx))
    |> List.map Domain.join
  in
  let elapsed = Bench.now () -. t0 in
  let after = stats srv in
  let rss = Bench.peak_rss_mb (string_of_int srv.pid) in
  kill srv;
  List.iter
    (fun r ->
      tally.Bench.attempted <- tally.Bench.attempted + Array.length r.lat;
      tally.failed <- tally.failed + Array.length r.lat - r.ok)
    results;
  let applied json = int_of_string (field json "applied_edits") in
  let acked = List.fold_left (fun acc r -> acc + r.acked) 0 results in
  Bench.record tally
    (acked = applied after - applied before)
    "%d acknowledged edits, but the server applied %d" acked
    (applied after - applied before);
  Option.iter
    (fun dir ->
      let recovered =
        match Store.recover ~read_only:true ~dir (served_model ()) with
        | Ok (st, _) ->
            Store.revision st = int_of_string (field after "revision")
            && String.equal
                 (Fmt.str "%016x" (Wal.model_fingerprint (Store.model st)))
                 (field after "model_fnv")
        | Error _ -> false
      in
      Bench.record tally recovered
        "the WAL of the killed server does not recover to its last Stats revision")
    wal;
  (results, elapsed, rss)

(* ------------------------------------------------------------------ *)
(* The in-process replay *)

type replay = {
  mutable ops : int;
  mutable pins : int;
  mutable builds : int;  (** pins that raised [Hub.snapshot_count] *)
  mutable checkpoints : int;
  mutable appended : int;
  mutable alloc : float;  (** bytes allocated on the traced path *)
  mutable same : bool;  (** every traced answer equals the untraced one *)
}

(* Replay the clients' streams, interleaved op by op, on a fresh hub —
   over a recovered WAL store with fsync [always] when durable — with a
   span around protocol decode, [Hub.handle] and encode.  Each answer is
   compared with the untraced [Hub.handle_frame] of a twin in-memory
   hub.  A durable edit is also priced on its own layers: [set_attr_raw]
   on an in-memory store, [Wal.append] and [Wal.sync] on a [Never] log,
   and a checkpoint write whenever the served store rolls one. *)
let replay_streams (cfg : Bench.config) tr mix paths ~counts ~deadline =
  let span name f = Bench.span tr name f in
  let model = served_model () in
  let hub =
    if not mix.durable then Hub.create model
    else
      match
        Store.recover ~policy:Wal.Always ~checkpoint_every:1024
          ~dir:(Bench.fresh_dir cfg "replay_wal") model
      with
      | Ok (st, _) -> Hub.of_store st
      | Error d -> Fmt.failwith "replay store: %a" Diagnostic.pp d
  in
  let twin = Hub.create model in
  let mem = Store.of_model model in
  let probe_dir = Bench.fresh_dir cfg "probe_wal" and ck_dir = Bench.fresh_dir cfg "probe_ck" in
  let log =
    match Wal.open_log ~dir:probe_dir ~policy:Wal.Never () with
    | Ok l -> l
    | Error d -> Fmt.failwith "probe log: %a" Diagnostic.pp d
  in
  let st =
    { ops = 0; pins = 0; builds = 0; checkpoints = 0; appended = 0; alloc = 0.; same = true }
  in
  let price_edit = function
    | P.Edit { path; key; value; unit_spelling; _ } when mix.durable ->
        ignore (span "store.set_attr" (fun () -> Store.set_attr_raw mem path ?unit_spelling key value));
        let v =
          match Store.element_at mem path with
          | Some e -> List.assoc key e.Model.attrs
          | None -> failwith "edit target vanished"
        in
        let rev = Store.revision mem in
        (match span "wal.append" (fun () -> Wal.append log ~rev (Wal.Set_attr (path, key, v))) with
        | Ok () -> st.appended <- st.appended + 1
        | Error d -> Fmt.failwith "probe append: %a" Diagnostic.pp d);
        span "wal.fsync" (fun () -> Wal.sync log)
    | _ -> ()
  in
  let client idx =
    let s = Hub.session hub and s' = Hub.session twin in
    let send c req =
      let payload = P.encode_request req in
      let snapshots = Hub.snapshot_count hub and ckpt = Store.checkpoint_rev (Hub.store hub) in
      let a0 = Gc.allocated_bytes () in
      let resp =
        match span "protocol.decode" (fun () -> P.decode_request payload) with
        | Ok r -> span ("hub." ^ classes.(c)) (fun () -> Hub.handle hub s r)
        | Error d -> P.Err { code = d.Diagnostic.code; msg = d.message }
      in
      let bytes = span "protocol.encode" (fun () -> P.encode_response resp) in
      st.alloc <- st.alloc +. (Gc.allocated_bytes () -. a0);
      if not (String.equal bytes (Hub.handle_frame twin s' payload)) then st.same <- false;
      if req = P.Pin then begin
        st.pins <- st.pins + 1;
        if Hub.snapshot_count hub > snapshots then st.builds <- st.builds + 1
      end;
      (match Store.checkpoint_rev (Hub.store hub) with
      | Some rev when Some rev <> ckpt ->
          st.checkpoints <- st.checkpoints + 1;
          ignore
            (span "wal.checkpoint" (fun () ->
                 Wal.write_checkpoint ~dir:ck_dir ~rev (Store.model (Hub.store hub))))
      | _ -> ());
      if is_ok resp then price_edit req;
      resp
    in
    (stream mix paths ~seed:cfg.seed idx, send)
  in
  let streams = Array.init clients client in
  let i = ref 0 in
  while Bench.now () < deadline && Array.exists (fun n -> !i < n) counts do
    Array.iteri
      (fun idx (next, send) ->
        if !i < counts.(idx) then begin
          if not (perform send (next ())) then st.same <- false;
          st.ops <- st.ops + 1
        end)
      streams;
    incr i
  done;
  Wal.close log;
  Store.close_wal (Hub.store hub);
  (st, Bench.file_size (Wal.log_path probe_dir), Xpdl_query.Query.size (Xpdl_query.Query.of_model model))

let covering =
  [ "protocol.decode"; "hub.getter"; "hub.derived"; "hub.edit"; "hub.pinned"; "protocol.encode" ]

(* ------------------------------------------------------------------ *)

(* A timed run is cut into segments, each on a fresh server whose
   start-up is one set-up sample, so the set-ups are spread over the run
   (see [Bench.repeat_with_setups]). *)
let segments = 6

let run (cfg : Bench.config) mix =
  let tally = Bench.tally () in
  let sock = Filename.concat cfg.work "serve.sock" in
  (* set-up: spawn to the first answered Ping *)
  let start i =
    let wal = if mix.durable then Some (Bench.fresh_dir cfg (Fmt.str "wal%d" i)) else None in
    let t0 = Bench.now () in
    let srv = spawn cfg ~sock ~wal in
    (try await_ping srv
     with e ->
       kill srv;
       raise e);
    (srv, wal, Bench.now () -. t0)
  in
  if not cfg.trace then begin
    let segs =
      List.init segments (fun i ->
          let srv, wal, setup = start i in
          Fun.protect ~finally:(fun () -> kill srv) @@ fun () ->
          let paths = resolve srv mix.targets in
          let results, elapsed, rss =
            drive tally srv ~wal mix paths ~seed:cfg.seed
              ~seconds:(cfg.seconds /. float_of_int segments)
          in
          (setup, Array.concat (List.map (fun r -> r.lat) results), elapsed, rss))
    in
    let per_segment f = Array.of_list (List.map f segs) in
    let lat = Array.concat (List.map (fun (_, l, _, _) -> l) segs) in
    ( tally,
      [
        ("setup_s", Bench.median (per_segment (fun (s, _, _, _) -> s)));
        ("latency_p50_ms", Bench.median lat *. 1e3);
        ("latency_p99_ms", Bench.percentile lat 0.99 *. 1e3);
        ( "throughput_ops_s",
          Bench.median (per_segment (fun (_, l, e, _) -> float_of_int (Array.length l) /. e)) );
        ("peak_rss_mb", Array.fold_left Float.max 0. (per_segment (fun (_, _, _, r) -> r)));
      ] )
  end
  else begin
    let srv, wal, _ = start 0 in
    Fun.protect ~finally:(fun () -> kill srv) @@ fun () ->
    let paths = resolve srv mix.targets in
    (* half the run over the wire, half replaying the same streams *)
    let results, _, _ =
      drive tally srv ~wal mix paths ~seed:cfg.seed ~seconds:(cfg.seconds /. 2.)
    in
    let lat = Array.concat (List.map (fun r -> r.lat) results)
    and cls = Array.concat (List.map (fun r -> r.cls) results) in
    let total = Bench.sum lat in
    let class_share c =
      let s = ref 0. in
      Array.iteri (fun i l -> if int_of_float cls.(i) = c then s := !s +. l) lat;
      !s /. total
    in
    let tr = Bench.tracer () in
    let st, log_bytes, nodes =
      replay_streams cfg tr mix paths
        ~counts:(Array.of_list (List.map (fun r -> Array.length r.lat) results))
        ~deadline:(Bench.now () +. (cfg.seconds /. 2.))
    in
    Bench.record tally st.same "the traced replay answered differently from Hub.handle_frame";
    let shares =
      Bench.shares tr ~ops:st.ops ~op_mean:(total /. float_of_int (Array.length lat)) ~covering
    in
    let per_op n = float_of_int n /. float_of_int st.ops in
    ( tally,
      shares
      @ List.mapi (fun c name -> (Fmt.str "client.%s.share" name, class_share c)) (Array.to_list classes)
      @ [
          ("serve.wait.share", 1. -. List.assoc "trace.coverage_frac" shares);
          ( "hub.snapshot_builds_per_pin",
            if st.pins = 0 then 0. else float_of_int st.builds /. float_of_int st.pins );
          ( "wal.bytes_per_edit",
            if st.appended = 0 then 0. else float_of_int log_bytes /. float_of_int st.appended );
          ("wal.checkpoints_per_kop", 1000. *. per_op st.checkpoints);
          ("gc.alloc_mb_per_op", st.alloc /. float_of_int st.ops /. 1e6);
          ("toolchain.ir_nodes", float_of_int nodes);
        ] )
  end
