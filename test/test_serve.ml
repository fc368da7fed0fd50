(* Tests for the concurrent model-query server stack: frame reassembly
   under pathological transfer sizes, the binary protocol codec, journal
   compaction against pinned revisions (the MVCC retention floor), the
   query handle's domain-safety, hub session semantics, and a live
   socket smoke test with subscriptions. *)

open Xpdl_core
module Store = Xpdl_store.Store
module Query = Xpdl_query.Query
module Ir = Xpdl_toolchain.Ir
module Frame = Xpdl_serve.Frame
module Protocol = Xpdl_serve.Protocol
module Hub = Xpdl_serve.Hub
module Server = Xpdl_serve.Server
module Client = Xpdl_serve.Client
module Chaos = Xpdl_serve.Chaos

let case name f = Alcotest.test_case name `Quick f
let watts w = Model.Quantity (Xpdl_units.Units.watts w, "W")
let hertz f = Model.Quantity (Xpdl_units.Units.hertz f, "Hz")

let model = Testlib.model

(* root -> two cpus -> one core each *)
let small_tree () =
  let core i p f =
    Model.make Schema.Core ~id:(Fmt.str "core%d" i)
      ~attrs:[ ("static_power", watts p); ("frequency", hertz f) ]
  in
  Model.make Schema.System ~id:"sys"
    ~children:
      [
        Model.make Schema.Cpu ~id:"cpu1" ~attrs:[ ("static_power", watts 10.) ]
          ~children:[ core 1 2. 1e9 ];
        Model.make Schema.Cpu ~id:"cpu2" ~attrs:[ ("static_power", watts 20.) ]
          ~children:[ core 2 4. 2e9 ];
      ]

let code_of = function
  | Protocol.Err { code; _ } -> code
  | r -> Alcotest.failf "expected an error response, got %a" Protocol.pp_response r

let ok_int = function
  | Protocol.Ok (Protocol.Int v) -> v
  | r -> Alcotest.failf "expected Ok Int, got %a" Protocol.pp_response r

let ok_float_bits = function
  | Protocol.Ok (Protocol.Float v) -> Int64.bits_of_float v
  | r -> Alcotest.failf "expected Ok Float, got %a" Protocol.pp_response r

(* ------------------------------------------------------------------ *)
(* Framing *)

let test_frame_byte_at_a_time () =
  let payloads = [ "hello"; ""; String.make 300_000 'x'; "tail" ] in
  let wire = String.concat "" (List.map Frame.encode payloads) in
  let d = Frame.decoder () in
  let got = ref [] in
  String.iter
    (fun ch ->
      Frame.feed d (String.make 1 ch);
      let rec drain () =
        match Frame.next d with
        | Ok (Some p) ->
            got := p :: !got;
            drain ()
        | Ok None -> ()
        | Error e -> Alcotest.failf "decoder error: %a" Diagnostic.pp e
      in
      drain ())
    wire;
  Alcotest.(check (list string)) "all frames reassembled" payloads (List.rev !got);
  Alcotest.(check bool) "clean boundary" true (Frame.close d = Ok ())

let test_frame_truncation () =
  (* input ends in the middle of an announced payload: XPDL700 *)
  let d = Frame.decoder () in
  let wire = Frame.encode "abcdef" in
  Frame.feed d (String.sub wire 0 7);
  (match Frame.next d with
  | Ok None -> ()
  | _ -> Alcotest.fail "incomplete frame must not yield");
  (match Frame.close d with
  | Error e -> Alcotest.(check string) "truncation code" "XPDL700" e.Diagnostic.code
  | Ok () -> Alcotest.fail "close mid-frame must error");
  (* announced length beyond max_frame: sticky XPDL701 *)
  let d = Frame.decoder () in
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 0x7f000000l;
  Frame.feed d (Bytes.to_string b);
  (match Frame.next d with
  | Error e -> Alcotest.(check string) "oversize code" "XPDL701" e.Diagnostic.code
  | Ok _ -> Alcotest.fail "oversize must error");
  Frame.feed d "more";
  (match Frame.next d with
  | Error e -> Alcotest.(check string) "sticky" "XPDL701" e.Diagnostic.code
  | Ok _ -> Alcotest.fail "oversize must stay sticky")

let test_frame_blocking_io () =
  (* a frame dribbled through a pipe one byte at a time, from a writer
     domain, must reassemble in read_frame *)
  let r, w = Unix.pipe () in
  let payload = String.make 100_000 'y' in
  let writer =
    Domain.spawn (fun () ->
        let wire = Frame.encode payload in
        String.iter
          (fun ch -> ignore (Unix.write_substring w (String.make 1 ch) 0 1))
          (String.sub wire 0 64);
        (* rest in bulk so the test stays fast *)
        let rest = String.sub wire 64 (String.length wire - 64) in
        ignore (Unix.write_substring w rest 0 (String.length rest));
        Unix.close w)
  in
  (match Frame.read_frame r with
  | Ok (Some p) -> Alcotest.(check int) "length" (String.length payload) (String.length p)
  | _ -> Alcotest.fail "expected a frame");
  (match Frame.read_frame r with
  | Ok None -> ()
  | _ -> Alcotest.fail "expected clean EOF");
  Domain.join writer;
  Unix.close r;
  (* EOF mid-frame: XPDL700 *)
  let r, w = Unix.pipe () in
  let wire = Frame.encode "abcdef" in
  ignore (Unix.write_substring w wire 0 7);
  Unix.close w;
  (match Frame.read_frame r with
  | Error e -> Alcotest.(check string) "truncated read" "XPDL700" e.Diagnostic.code
  | Ok _ -> Alcotest.fail "EOF mid-frame must error");
  Unix.close r

(* ------------------------------------------------------------------ *)
(* Protocol codec *)

let test_protocol_roundtrip () =
  let reqs =
    [
      Protocol.Ping;
      Protocol.Stats;
      Protocol.Pin;
      Protocol.Unpin 42;
      Protocol.Query { rev = -1; q = "static-power" };
      Protocol.Query { rev = 17; q = "sel://core[@frequency]" };
      Protocol.Edit
        { path = [ 0; 3; 1 ]; key = "frequency"; value = "2.5"; unit_spelling = Some "GHz"; req_id = None };
      Protocol.Edit { path = []; key = "name"; value = "x"; unit_spelling = None; req_id = None };
      Protocol.Subscribe;
      Protocol.Unsubscribe;
      Protocol.Fetch (-1);
      Protocol.EditsSince 99;
    ]
  in
  List.iter
    (fun req ->
      match Protocol.decode_request (Protocol.encode_request req) with
      | Ok req' -> Alcotest.(check bool) "request roundtrip" true (req = req')
      | Error e -> Alcotest.failf "decode: %a" Diagnostic.pp e)
    reqs;
  let ev = { Protocol.ev_rev = 7; ev_path = [ 1; 0 ]; ev_kind = "frequency" } in
  let resps =
    [
      Protocol.Ok Protocol.Unit;
      Protocol.Ok (Protocol.Int (-12));
      Protocol.Ok (Protocol.Float Float.nan);
      Protocol.Ok (Protocol.Float (-0.0));
      Protocol.Ok (Protocol.Float (1. /. 3.));
      Protocol.Ok (Protocol.Str "liu_gpu_server/gpu1");
      Protocol.Ok (Protocol.Blob (String.make 1024 '\000'));
      Protocol.Ok (Protocol.Strs [ "a"; ""; "c" ]);
      Protocol.Ok (Protocol.Edits [ ev; { ev with ev_rev = 8; ev_kind = "#structure" } ]);
      Protocol.Ok (Protocol.Compacted 123);
      Protocol.Err { code = "XPDL705"; msg = "edit rejected" };
      Protocol.Event ev;
    ]
  in
  List.iter
    (fun resp ->
      match Protocol.decode_response (Protocol.encode_response resp) with
      | Ok resp' ->
          (* compare through the printer so NaN payloads compare equal *)
          Alcotest.(check string)
            "response roundtrip"
            (Fmt.str "%a" Protocol.pp_response resp)
            (Fmt.str "%a" Protocol.pp_response resp')
      | Error e -> Alcotest.failf "decode: %a" Diagnostic.pp e)
    resps

let test_protocol_malformed () =
  let code s =
    match Protocol.decode_request s with
    | Error e -> e.Diagnostic.code
    | Ok r -> Alcotest.failf "decoded malformed input as %a" Protocol.pp_request r
  in
  Alcotest.(check string) "unknown opcode" "XPDL702" (code "\xff");
  Alcotest.(check string) "empty payload" "XPDL703" (code "");
  Alcotest.(check string) "truncated fields" "XPDL703" (code "\x04\x00\x00");
  Alcotest.(check string)
    "trailing bytes" "XPDL703"
    (code (Protocol.encode_request Protocol.Ping ^ "junk"));
  match Protocol.decode_response "\x09" with
  | Error e -> Alcotest.(check string) "unknown status" "XPDL703" e.Diagnostic.code
  | Ok _ -> Alcotest.fail "decoded malformed response"

(* ------------------------------------------------------------------ *)
(* Satellite 1: compaction respects the oldest pinned revision *)

let test_compaction_retention_floor () =
  let capacity = 8 in
  let store = Store.of_model ~journal_capacity:capacity (small_tree ()) in
  (* a few edits before pinning so the pin is not at revision 0 *)
  for i = 1 to 3 do
    Store.set_attr store [ 0; 0 ] "static_power" (watts (float_of_int i))
  done;
  let pinned = Store.pin store in
  Alcotest.(check int) "pin at head" 3 pinned;
  let q = Query.of_model (Store.model store) in
  let power_at_pin = Int64.bits_of_float (Query.total_static_power q) in
  let freq_at_pin = Int64.bits_of_float (Option.value ~default:0. (Query.min_frequency q)) in
  (* flood: way past 2x journal capacity, which would compact the pinned
     suffix away without the retention floor *)
  for i = 1 to 4 * capacity do
    Store.set_attr store [ 1; 0 ] "frequency" (hertz (1e9 +. float_of_int i))
  done;
  (match Store.edits_since store pinned with
  | Some edits ->
      Alcotest.(check int) "whole suffix replayable" (4 * capacity) (List.length edits)
  | None -> Alcotest.fail "journal compacted past a pinned revision");
  (* the pinned snapshot still answers bit-identically *)
  Alcotest.(check int64) "pinned power bits" power_at_pin
    (Int64.bits_of_float (Query.total_static_power q));
  Alcotest.(check int64) "pinned freq bits" freq_at_pin
    (Int64.bits_of_float (Option.value ~default:0. (Query.min_frequency q)));
  Alcotest.(check (list int)) "pin visible" [ pinned ] (Store.pinned_revisions store);
  (* release the pin: the next compactions shrink the journal again and
     the pinned revision becomes unreplayable *)
  Store.unpin store pinned;
  for i = 1 to 4 * capacity do
    Store.set_attr store [ 1; 0 ] "frequency" (hertz (2e9 +. float_of_int i))
  done;
  Alcotest.(check bool)
    "journal bounded after unpin" true
    (Store.journal_length store <= 2 * capacity);
  Alcotest.(check bool) "compacted past old pin" true (Store.edits_since store pinned = None);
  (* double-unpin is a coded error *)
  match Store.unpin store pinned with
  | () -> Alcotest.fail "unpin of an unpinned revision must raise"
  | exception Store.Store_error d ->
      Alcotest.(check string) "unpin code" "XPDL404" d.Diagnostic.code

(* ------------------------------------------------------------------ *)
(* Satellite 2: query handles are domain-safe for readers *)

let test_query_domain_safety () =
  let m = model "liu_gpu_server" in
  let q = Query.of_model m in
  (* single-domain oracle, computed on a fresh handle *)
  let oracle = Query.of_model m in
  let expect =
    ( Query.count_cores oracle,
      Int64.bits_of_float (Query.total_static_power oracle),
      Int64.bits_of_float (Query.total_memory_bytes oracle),
      Query.count_cuda_devices oracle,
      List.length (Query.select oracle "//core"),
      List.length (Query.installed_software oracle) )
  in
  let rounds = 200 in
  let reader () =
    let bad = ref 0 in
    for _ = 1 to rounds do
      let got =
        ( Query.count_cores q,
          Int64.bits_of_float (Query.total_static_power q),
          Int64.bits_of_float (Query.total_memory_bytes q),
          Query.count_cuda_devices q,
          List.length (Query.select q "//core"),
          List.length (Query.installed_software q) )
      in
      if got <> expect then incr bad
    done;
    !bad
  in
  let d1 = Domain.spawn reader and d2 = Domain.spawn reader in
  let bad = Domain.join d1 + Domain.join d2 in
  Alcotest.(check int) "all concurrent reads agree with the oracle" 0 bad

(* ------------------------------------------------------------------ *)
(* Hub sessions *)

let hub_small () = Hub.create ~journal_capacity:8 (small_tree ())

let test_hub_basics () =
  let h = hub_small () in
  let s = Hub.session h in
  Alcotest.(check bool) "ping" true (Hub.handle h s Protocol.Ping = Protocol.Ok Protocol.Unit);
  (match Hub.handle h s Protocol.Stats with
  | Protocol.Ok (Protocol.Str json) ->
      Alcotest.(check bool) "stats is json" true (String.length json > 2 && json.[0] = '{')
  | r -> Alcotest.failf "stats: %a" Protocol.pp_response r);
  Alcotest.(check int) "cores" 2 (ok_int (Hub.handle h s (Protocol.Query { rev = -1; q = "cores" })));
  Alcotest.(check string)
    "unknown query" "XPDL704"
    (code_of (Hub.handle h s (Protocol.Query { rev = -1; q = "frobnicate" })));
  Alcotest.(check string)
    "unpinned revision" "XPDL706"
    (code_of (Hub.handle h s (Protocol.Query { rev = 0; q = "cores" })));
  Alcotest.(check string)
    "bad edit" "XPDL705"
    (code_of
       (Hub.handle h s
          (Protocol.Edit
             { path = [ 0; 0 ]; key = "frequency"; value = "wat"; unit_spelling = Some "GHz"; req_id = None })));
  Alcotest.(check string)
    "dangling edit path" "XPDL705"
    (code_of
       (Hub.handle h s
          (Protocol.Edit { path = [ 9; 9 ]; key = "frequency"; value = "1"; unit_spelling = None; req_id = None })));
  (* a fetched image parses back into an equivalent runtime model *)
  match Hub.handle h s (Protocol.Fetch (-1)) with
  | Protocol.Ok (Protocol.Blob bytes) ->
      let q = Query.of_ir (Ir.of_bytes bytes) in
      Alcotest.(check int) "fetched image cores" 2 (Query.count_cores q)
  | r -> Alcotest.failf "fetch: %a" Protocol.pp_response r

let test_hub_mvcc_and_events () =
  let h = hub_small () in
  let reader = Hub.session h and writer = Hub.session h in
  Alcotest.(check bool)
    "subscribe" true
    (Hub.handle h reader Protocol.Subscribe = Protocol.Ok Protocol.Unit);
  let rev = ok_int (Hub.handle h reader Protocol.Pin) in
  let pinned_power = ok_float_bits (Hub.handle h reader (Protocol.Query { rev; q = "static-power" })) in
  (* writer advances ~1000 revisions, far across compaction thresholds *)
  let n = 1000 in
  for i = 1 to n do
    let r =
      Hub.handle h writer
        (Protocol.Edit
           {
             path = [ 0; 0 ];
             key = "static_power";
             value = Fmt.str "%d" (i mod 97);
             unit_spelling = Some "W";
             req_id = None;
           })
    in
    ignore (ok_int r)
  done;
  Alcotest.(check int64)
    "pinned snapshot bit-identical under a moving writer" pinned_power
    (ok_float_bits (Hub.handle h reader (Protocol.Query { rev; q = "static-power" })));
  (* the head sees the last write *)
  let head_power = ok_float_bits (Hub.handle h reader (Protocol.Query { rev = -1; q = "static-power" })) in
  Alcotest.(check bool) "head moved" true (head_power <> pinned_power);
  (* subscribed session got every edit, in order *)
  let evs = Hub.drain_events reader in
  Alcotest.(check int) "event per edit" n (List.length evs);
  let revs = List.map (fun ev -> ev.Protocol.ev_rev) evs in
  Alcotest.(check bool) "events ordered" true (List.sort compare revs = revs);
  Alcotest.(check int) "no second drain" 0 (List.length (Hub.drain_events reader));
  (* catch-up from the pinned revision stays replayable... *)
  (match Hub.handle h reader (Protocol.EditsSince rev) with
  | Protocol.Ok (Protocol.Edits l) -> Alcotest.(check int) "replayable suffix" n (List.length l)
  | r -> Alcotest.failf "edits-since: %a" Protocol.pp_response r);
  (* ...until the pin is dropped and compaction passes it *)
  Alcotest.(check bool)
    "unpin" true
    (Hub.handle h reader (Protocol.Unpin rev) = Protocol.Ok Protocol.Unit);
  Alcotest.(check int) "snapshot reclaimed" 0 (Hub.snapshot_count h);
  Alcotest.(check string)
    "stale unpin" "XPDL706"
    (code_of (Hub.handle h reader (Protocol.Unpin rev)));
  for i = 1 to 64 do
    ignore
      (Hub.handle h writer
         (Protocol.Edit
            { path = [ 1; 0 ]; key = "static_power"; value = string_of_int i; unit_spelling = Some "W"; req_id = None }))
  done;
  (match Hub.handle h writer (Protocol.EditsSince rev) with
  | Protocol.Ok (Protocol.Compacted head) ->
      Alcotest.(check int) "resync target is head" (n + 3 + 64) (head + 3)
  | r -> Alcotest.failf "expected Compacted, got %a" Protocol.pp_response r);
  (* closing a session with pins releases its floors *)
  let s3 = Hub.session h in
  ignore (ok_int (Hub.handle h s3 Protocol.Pin));
  Alcotest.(check int) "snapshot live" 1 (Hub.snapshot_count h);
  Hub.close_session h s3;
  Alcotest.(check int) "snapshot reclaimed on close" 0 (Hub.snapshot_count h);
  Alcotest.(check (list int)) "no pins left" [] (Store.pinned_revisions (Hub.store h))

(* A pin freezes the head's arena and memo.  While a writer first
   patches the head in place (50 attribute edits) and then forces a
   rebuild (one structural edit), every query expression at the pinned
   revision must answer exactly what a handle built from scratch on the
   pin-time model answers, and a pinned Fetch must decode, node by node,
   to that model's arena.  Run once with a warm head (memo entries and
   node views built before the pin) and once cold (nothing built). *)
let test_pin_freezes_head warm () =
  let h = Hub.create (model "liu_gpu_server") in
  let st = Hub.store h and s = Hub.session h in
  let path_of ident =
    match Store.find_paths st (fun e -> Model.identifier e = Some ident) with
    | p :: _ -> p
    | [] -> Alcotest.failf "no element %s" ident
  in
  let exprs =
    [ "cores"; "cuda-devices"; "static-power"; "memory"; "min-freq"; "max-freq"; "size";
      "multi-node"; "software"; "degraded"; "id:SM12"; "id:no_such"; "ipath:SM12";
      "path:liu_gpu_server/gpu1"; "prop:ExternalPowerMeter"; "bw:connection1"; "sel://core";
      "sel://cache[@level=2]"; "frobnicate" ]
  in
  let ask rev = List.map (fun q -> Hub.handle h s (Protocol.Query { rev; q })) exprs in
  let fetch rev =
    match Hub.handle h s (Protocol.Fetch rev) with
    | Protocol.Ok (Protocol.Blob b) -> b
    | r -> Alcotest.failf "fetch %d: %a" rev Protocol.pp_response r
  in
  (* the pin copies an overlay of earlier edits *)
  Store.set_attr st (path_of "SM12") "static_power" (watts 3.);
  if warm then ignore (ask (-1));
  let pinned_model = Store.model st in
  let rev = ok_int (Hub.handle h s Protocol.Pin) in
  let head_image = fetch (-1) in
  let sms = Array.init 5 (fun i -> path_of (Fmt.str "SM%d" i)) in
  for i = 1 to 47 do
    Store.set_attr st sms.(i mod 5) "static_power" (watts (float_of_int i))
  done;
  Store.set_attr st (path_of "core0") "frequency" (hertz 9e9);
  Store.set_attr st (path_of "gpu1") "quality" (Model.Str "interpolated");
  Store.set_attr st (path_of "ExternalPowerMeter") "value" (Model.Str "edited");
  let patched = ask (-1) in
  Store.insert_child st [] (Model.make Schema.Core ~id:"extra" ~attrs:[ ("frequency", hertz 1e3) ]);
  let rebuilt = ask (-1) in
  Alcotest.(check bool) "the head moved" true (patched <> rebuilt);
  let oracle = Query.of_model pinned_model in
  List.iter2
    (fun q got ->
      let want = Hub.eval_query oracle q in
      if Protocol.encode_response want <> Protocol.encode_response got then
        Alcotest.failf "%s at pinned rev %d: %a, from scratch %a" q rev Protocol.pp_response got
          Protocol.pp_response want)
    exprs (ask rev);
  let image = fetch rev in
  Alcotest.(check bool) "pinned Fetch = head Fetch at the pin" true (String.equal head_image image);
  Alcotest.(check bool) "pinned image encoded once" true (image == fetch rev);
  let got = Ir.of_bytes image and want = Ir.of_model pinned_model in
  Alcotest.(check int) "fetched size" (Ir.size want) (Ir.size got);
  for i = 0 to Ir.size want - 1 do
    if compare (Ir.node got i) (Ir.node want i) <> 0 then
      Alcotest.failf "fetched node %d differs from the pin-time model" i
  done;
  Alcotest.(check bool) "fetched image verifies" true (Ir.verify got = Ok ())

let test_hub_handle_frame () =
  let h = hub_small () in
  let s = Hub.session h in
  (* a malformed payload comes back as an encoded Err, not an exception *)
  match Protocol.decode_response (Hub.handle_frame h s "\xff\x01\x02") with
  | Ok (Protocol.Err { code; _ }) -> Alcotest.(check string) "decode error code" "XPDL702" code
  | r ->
      Alcotest.failf "unexpected: %a"
        Fmt.(result ~ok:Protocol.pp_response ~error:Diagnostic.pp)
        r

(* ------------------------------------------------------------------ *)
(* Live socket smoke *)

let test_server_socket () =
  (* journal capacity 256: the 1000 edits below cross several compactions *)
  let h = Hub.create ~journal_capacity:256 (model "liu_gpu_server") in
  let path = Filename.temp_file "xpdl-serve" ".sock" in
  Unix.unlink path;
  let srv = Server.start ~deadline_s:30. (Server.Unix_socket path) h in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let c1 = Client.connect (Server.Unix_socket path) in
      let c2 = Client.connect (Server.Unix_socket path) in
      Alcotest.(check bool) "ping" true (Client.request c1 Protocol.Ping = Protocol.Ok Protocol.Unit);
      let cores = ok_int (Client.request c1 (Protocol.Query { rev = -1; q = "cores" })) in
      Alcotest.(check bool) "cores positive" true (cores > 0);
      (* MVCC across the wire: c1 pins, c2 lands 1000 edits, c1's
         snapshot holds bit-for-bit and the journal past the pin stays
         replayable *)
      let rev = ok_int (Client.request c1 Protocol.Pin) in
      let static_power rev =
        ok_float_bits (Client.request c1 (Protocol.Query { rev; q = "static-power" }))
      in
      let pinned = static_power rev in
      let paths = Store.find_paths (Hub.store h) (fun e -> e.Model.kind = Schema.Core) in
      let core_path = List.hd paths in
      let edit value =
        ok_int
          (Client.request c2
             (Protocol.Edit
                { path = core_path; key = "static_power"; value; unit_spelling = Some "W"; req_id = None }))
      in
      let n_edits = 1000 in
      for i = 1 to n_edits do
        let r = edit (string_of_int (1 + (i mod 40))) in
        if r <> rev + i then Alcotest.failf "edit %d landed at revision %d" i r
      done;
      Alcotest.(check int64) "pinned read over the wire" pinned (static_power rev);
      (match Client.request c1 (Protocol.EditsSince rev) with
      | Protocol.Ok (Protocol.Edits l) ->
          Alcotest.(check int) "journal past the pin replayable" n_edits (List.length l)
      | r -> Alcotest.failf "EditsSince answered %a" Protocol.pp_response r);
      Alcotest.(check bool) "head moved" false (Int64.equal pinned (static_power (-1)));
      Alcotest.(check bool)
        "subscribe" true
        (Client.request c1 Protocol.Subscribe = Protocol.Ok Protocol.Unit);
      let new_rev = edit "11" in
      Alcotest.(check bool) "revision advanced" true (new_rev > rev);
      (* the subscribed client receives the other client's edit *)
      (match Client.wait_events c1 1 with
      | [ ev ] ->
          Alcotest.(check int) "event revision" new_rev ev.Protocol.ev_rev;
          Alcotest.(check string) "event kind" "static_power" ev.Protocol.ev_kind
      | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs));
      Alcotest.(check bool)
        "unpin over the wire" true
        (Client.request c1 (Protocol.Unpin rev) = Protocol.Ok Protocol.Unit);
      Client.close c1;
      Client.close c2)

let test_loadgen_smoke () =
  let h = Hub.create (model "liu_gpu_server") in
  let path = Filename.temp_file "xpdl-loadgen" ".sock" in
  Unix.unlink path;
  let srv = Server.start ~deadline_s:60. (Server.Unix_socket path) h in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let core_path =
        List.hd (Store.find_paths (Hub.store h) (fun e -> e.Model.kind = Schema.Core))
      in
      let mix =
        {
          Xpdl_serve.Loadgen.default_mix with
          edits =
            [| { et_path = core_path; et_key = "static_power"; et_values = [| "1"; "2"; "3" |] } |];
        }
      in
      let report =
        Xpdl_serve.Loadgen.run (Server.Unix_socket path)
          { clients = 2; duration_s = 0.3; mode = Closed; mix; seed = 42; req_ids = false; retry = None }
      in
      Alcotest.(check bool) "did work" true (report.ops > 0);
      Alcotest.(check int) "no errors" 0 report.errors;
      Alcotest.(check bool) "latencies sane" true (report.p50_us > 0. && report.p99_us >= report.p50_us))

(* ------------------------------------------------------------------ *)
(* Durable-serving robustness: coded session close on a reset peer,
   idempotent edit replay by request id, retry exhaustion, and the
   fault-injecting proxy. *)

let test_frame_peer_close () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close b;
  (* large enough that the kernel cannot swallow it whole: the write
     loop must hit EPIPE mid-frame and surface the coded close *)
  (match Frame.write_frame a (String.make 4_000_000 'z') with
  | () -> Alcotest.fail "write to a closed peer must raise"
  | exception Frame.Closed d ->
      Alcotest.(check string) "session-close code" "XPDL708" d.Diagnostic.code);
  Unix.close a

let test_server_reclaims_reset_session () =
  let h = hub_small () in
  let path = Filename.temp_file "xpdl-reset" ".sock" in
  Unix.unlink path;
  let srv = Server.start ~deadline_s:30. (Server.Unix_socket path) h in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let c1 = Client.connect (Server.Unix_socket path) in
      ignore (ok_int (Client.request c1 Protocol.Pin));
      Alcotest.(check bool)
        "subscribe" true
        (Client.request c1 Protocol.Subscribe = Protocol.Ok Protocol.Unit);
      Alcotest.(check int) "pin held" 1 (List.length (Store.pinned_revisions (Hub.store h)));
      (* the client vanishes without a goodbye; the next pushed event
         write (or read EOF) must reclaim the session and its pins *)
      Client.close c1;
      let c2 = Client.connect (Server.Unix_socket path) in
      let deadline = Unix.gettimeofday () +. 10. in
      let rec drain i =
        if Store.pinned_revisions (Hub.store h) = [] then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "server never reclaimed the dead session's pins"
        else begin
          ignore
            (ok_int
               (Client.request c2
                  (Protocol.Edit
                     {
                       path = [ 0; 0 ];
                       key = "static_power";
                       value = string_of_int (i mod 50);
                       unit_spelling = Some "W";
                       req_id = None;
                     })));
          drain (i + 1)
        end
      in
      drain 0;
      Alcotest.(check (list int)) "pins reclaimed" [] (Store.pinned_revisions (Hub.store h));
      Client.close c2)

let test_hub_idempotent_edits () =
  let h = hub_small () in
  let s = Hub.session h in
  let edit id v =
    Protocol.Edit
      { path = [ 0; 0 ]; key = "static_power"; value = v; unit_spelling = Some "W"; req_id = Some id }
  in
  let r1 = ok_int (Hub.handle h s (edit 7 "5")) in
  Alcotest.(check int) "applied once" 1 (Hub.applied_edits h);
  (* replaying the same request id with the same payload is answered
     from the dedup window without touching the store *)
  Alcotest.(check int) "replay returns the original revision" r1 (ok_int (Hub.handle h s (edit 7 "5")));
  Alcotest.(check int) "not re-applied" 1 (Hub.applied_edits h);
  Alcotest.(check int) "counted as deduped" 1 (Hub.deduped h);
  Alcotest.(check int) "revision unmoved" r1 (Store.revision (Hub.store h));
  (* the same id with a different payload is a client bug, not a replay *)
  Alcotest.(check string) "id reuse" "XPDL905" (code_of (Hub.handle h s (edit 7 "6")));
  Alcotest.(check int) "conflicting reuse not applied" 1 (Hub.applied_edits h);
  let r2 = ok_int (Hub.handle h s (edit 8 "6")) in
  Alcotest.(check bool) "fresh id advances" true (r2 > r1);
  (* a bounded window: once an id ages out, its replay applies anew *)
  let h2 = Hub.create ~dedup_window:2 (small_tree ()) in
  let s2 = Hub.session h2 in
  let r = ok_int (Hub.handle h2 s2 (edit 1 "1")) in
  ignore (ok_int (Hub.handle h2 s2 (edit 2 "2")));
  ignore (ok_int (Hub.handle h2 s2 (edit 3 "3")));
  let r' = ok_int (Hub.handle h2 s2 (edit 1 "1")) in
  Alcotest.(check bool) "evicted id re-applies" true (r' > r);
  Alcotest.(check int) "no dedup after eviction" 0 (Hub.deduped h2)

let test_client_retry_exhaustion () =
  let h = hub_small () in
  let path = Filename.temp_file "xpdl-retry" ".sock" in
  Unix.unlink path;
  let srv = Server.start ~deadline_s:30. (Server.Unix_socket path) h in
  let c = Client.connect (Server.Unix_socket path) in
  Alcotest.(check bool)
    "retry path works on a live server" true
    (Client.request_retry c Protocol.Ping = Protocol.Ok Protocol.Unit);
  Server.stop srv;
  let policy =
    {
      Client.default_retry with
      attempts = 3;
      backoff_base_s = 0.005;
      deadline_s = Some 0.25;
    }
  in
  (match Client.request_retry ~policy c Protocol.Ping with
  | r -> Alcotest.failf "request against a dead server succeeded: %a" Protocol.pp_response r
  | exception Client.Client_error d ->
      Alcotest.(check string) "budget exhausted code" "XPDL906" d.Diagnostic.code);
  Client.close c

let test_chaos_proxy_torn_writes () =
  let h = hub_small () in
  let spath = Filename.temp_file "xpdl-chaos-srv" ".sock" in
  Unix.unlink spath;
  let ppath = Filename.temp_file "xpdl-chaos-px" ".sock" in
  Unix.unlink ppath;
  let srv = Server.start ~deadline_s:60. (Server.Unix_socket spath) h in
  (* every relay write torn to at most 3 bytes, no stalls or resets:
     deterministic, and every frame crosses in shreds *)
  let plan =
    { Chaos.default_plan with split_chance = 1.0; max_split = 3; stall_chance = 0.; reset_chance = 0. }
  in
  let px =
    Chaos.start ~deadline_s:60. ~seed:7 ~plan ~listen:(Server.Unix_socket ppath)
      ~upstream:(Server.Unix_socket spath) ()
  in
  Fun.protect
    ~finally:(fun () ->
      Chaos.stop px;
      Server.stop srv)
    (fun () ->
      let c = Client.connect (Server.Unix_socket ppath) in
      let last = ref 0 in
      for i = 1 to 25 do
        last :=
          ok_int
            (Client.request c
               (Protocol.Edit
                  {
                    path = [ 0; 0 ];
                    key = "static_power";
                    value = string_of_int i;
                    unit_spelling = Some "W";
                    req_id = Some i;
                  }))
      done;
      Alcotest.(check int) "every edit applied through torn writes" 25 (Hub.applied_edits h);
      Alcotest.(check int) "revisions in order" 25 !last;
      Client.close c;
      let stats = Chaos.stats_json px in
      let has sub =
        let n = String.length stats and m = String.length sub in
        let rec go i = i + m <= n && (String.sub stats i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "splits counted" false (has "\"splits\":0,");
      Alcotest.(check bool) "no resets injected" true (has "\"resets\":0,"))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ( "frame",
        [
          case "byte-at-a-time reassembly" test_frame_byte_at_a_time;
          case "truncation and oversize" test_frame_truncation;
          case "blocking pipe IO" test_frame_blocking_io;
        ] );
      ( "protocol",
        [ case "roundtrip" test_protocol_roundtrip; case "malformed" test_protocol_malformed ] );
      ("store", [ case "compaction respects pins" test_compaction_retention_floor ]);
      ("query", [ case "2-domain read stress" test_query_domain_safety ]);
      ( "hub",
        [
          case "basics and errors" test_hub_basics;
          case "mvcc, events, reclamation" test_hub_mvcc_and_events;
          case "pin freezes a warm head" (test_pin_freezes_head true);
          case "pin freezes a cold head" (test_pin_freezes_head false);
          case "frame-level dispatch" test_hub_handle_frame;
        ] );
      ( "server",
        [ case "socket smoke" test_server_socket; case "loadgen smoke" test_loadgen_smoke ] );
      ( "robustness",
        [
          case "peer close mid-write" test_frame_peer_close;
          case "dead session reclamation" test_server_reclaims_reset_session;
          case "idempotent edit replay" test_hub_idempotent_edits;
          case "retry exhaustion" test_client_retry_exhaustion;
          case "chaos proxy torn writes" test_chaos_proxy_torn_writes;
        ] );
    ]
