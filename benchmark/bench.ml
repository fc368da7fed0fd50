(** Shared kit of the benchmark: run configuration, clocks and order
    statistics, the span tracer of traced runs, failure accounting, and
    process/file helpers.  Every workload module builds on this. *)

type config = {
  workload : string;
  seed : int;  (** feeds every generated input: request streams, fleets, sweeps *)
  seconds : float;  (** measured run length *)
  trace : bool;  (** per-layer replay instead of the timed run *)
  smoke : bool;  (** scaled-down inputs for the test-suite smoke rule *)
  xpdltool : string;  (** the server binary the serve workloads spawn *)
  work : string;  (** this process's scratch directory *)
}

let now = Unix.gettimeofday
let nproc = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* Order statistics *)

(* Nearest-rank percentile of an unsorted sample. *)
let percentile a p =
  let s = Array.copy a in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then Float.nan else s.(min (n - 1) (int_of_float (Float.of_int n *. p)))

let median a = percentile a 0.5
let sum a = Array.fold_left ( +. ) 0. a

(** Throughput of a run of op times, in run order: the median over 20
    consecutive blocks of ops (fewer when there are fewer ops) of each
    block's ops per second of op time.  Like the median latency, it does
    not move when less than half of the run falls in one of the host's
    slow phases; the mean over the whole run does. *)
let block_throughput times =
  let n = Array.length times in
  let blocks = max 1 (min 20 n) in
  median
    (Array.init blocks (fun b ->
         let lo = b * n / blocks and hi = (b + 1) * n / blocks in
         float_of_int (hi - lo) /. sum (Array.sub times lo (hi - lo))))

(* An unboxed, growable sample buffer: the serve clients record one
   latency per request without allocating. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 4096 0.; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end

(* ------------------------------------------------------------------ *)
(* Operations and failures *)

(** Ops attempted, and ops that failed or whose output check failed. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

(** Count one op; a [false] outcome is a failure, the first few of which
    are reported on stderr. *)
let record t ok fmt =
  t.attempted <- t.attempted + 1;
  Fmt.kstr
    (fun msg ->
      if not ok then begin
        t.failed <- t.failed + 1;
        if t.failed <= 5 then Fmt.epr "xpdlbench: %s@." msg
      end)
    fmt

(** Wall time of [f ()] with its result. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(** Run [op 0], [op 1], ... for about [seconds]: an op is not started
    when the previous op's duration says it would end past the
    deadline, but at least [min_ops] run.  Between ops, [setup ()] is
    timed [setups] times, spread evenly over the run: the k-th once k /
    ([setups] + 1) of [seconds] has passed; set-up time does not count
    against [seconds].  The host's speed drifts in phases of a fraction
    of a second to seconds, so set-ups timed back to back all land in one
    phase; spread over the run, their median does not hang on it.
    Returns the op count and the set-up times. *)
let repeat_with_setups ~seconds ~min_ops ~setups setup op =
  let times = Array.make setups 0. and taken = ref 0 and run = ref 0. in
  let due () = float_of_int (!taken + 1) *. seconds /. float_of_int (setups + 1) in
  let rec go n last =
    while !taken < setups && !run >= due () do
      times.(!taken) <- snd (timed setup);
      incr taken
    done;
    if n >= min_ops && !run +. last > seconds then n
    else begin
      let (), dt = timed (fun () -> op n) in
      run := !run +. dt;
      go (n + 1) dt
    end
  in
  let n = go 0 0. in
  while !taken < setups do
    times.(!taken) <- snd (timed setup);
    incr taken
  done;
  (n, times)

(** {!repeat_with_setups} without set-ups.  Returns the op count. *)
let repeat ~seconds ~min_ops op = fst (repeat_with_setups ~seconds ~min_ops ~setups:0 ignore op)

(** [f ()] timed from a compacted heap, the state a fresh process
    starts from, so no op pays for an earlier op's garbage. *)
let timed_compacted f =
  Gc.compact ();
  timed f

(** The timed run of a batch workload: [run ()] repeatedly for about
    [seconds], with [setups] set-ups spread over it (see
    {!repeat_with_setups}), each result passed to [check] outside the
    timing.  Returns the latency and throughput metrics (see
    {!block_throughput}), and the set-up times. *)
let timed_loop ~seconds ~min_ops ~setups setup run check =
  let times = Samples.create () in
  let _, setup_times =
    repeat_with_setups ~seconds ~min_ops ~setups setup (fun _ ->
        let r, dt = timed_compacted run in
        Samples.add times dt;
        check r)
  in
  let times = Samples.to_array times in
  ( [
      ("latency_p50_ms", median times *. 1e3);
      ("latency_p99_ms", percentile times 0.99 *. 1e3);
      ("throughput_ops_s", block_throughput times);
    ],
    setup_times )

(* ------------------------------------------------------------------ *)
(* Traced runs: spans around calls into each layer's public functions *)

type tracer = (string, float ref) Hashtbl.t

let tracer () : tracer = Hashtbl.create 32

let span (tr : tracer) name f =
  let r, dt = timed f in
  (match Hashtbl.find_opt tr name with
  | Some c -> c := !c +. dt
  | None -> Hashtbl.replace tr name (ref dt));
  r

let spent (tr : tracer) name = match Hashtbl.find_opt tr name with Some c -> !c | None -> 0.

(** Every span name a workload may record.  Its per-layer metric is
    [<span>.share]: the span's time per op as a share of the untraced
    op's mean time. *)
let span_names =
  [
    "xml.parse"; "core.elaborate"; "core.instantiate"; "core.validate"; "repo.browse_parse";
    "repo.compose"; "repo.open_cold"; "repo.open_warm"; "repo_index.save"; "repo_index.decode";
    "toolchain.analysis"; "toolchain.filter"; "toolchain.ir_build"; "toolchain.ir_encode";
    "simhw.machine_create"; "microbench.bootstrap"; "store.of_model"; "store.set_attr";
    "wal.append"; "wal.fsync"; "wal.checkpoint"; "query.of_model"; "protocol.decode";
    "protocol.encode"; "hub.getter"; "hub.derived"; "hub.edit"; "hub.pinned"; "compose.dispatch";
    "energy.synthesize"; "dse.front";
  ]

(** Span shares for [ops] replayed ops whose untraced counterpart took
    [op_mean] seconds on average, plus [trace.op_ms] (that mean) and
    [trace.coverage_frac] (the summed shares of the spans listed in
    [covering]: the top-level spans, whose times add up to the op). *)
let shares tr ~ops ~op_mean ~covering =
  let share name = spent tr name /. float_of_int ops /. op_mean in
  List.map (fun name -> (name ^ ".share", share name)) span_names
  @ [
      ("trace.op_ms", op_mean *. 1e3);
      ("trace.coverage_frac", List.fold_left (fun acc n -> acc +. share n) 0. covering);
    ]

(* ------------------------------------------------------------------ *)
(* Processes and files *)

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some line -> (
            match String.split_on_char ':' line with
            | [ "VmHWM"; v ] -> Scanf.sscanf v " %d kB" (fun kb -> float_of_int kb /. 1024.)
            | _ -> scan ())
      in
      scan ())

(** Run [argv] in a child process and wait for it to end.  Its standard
    input is empty; its output is appended to [<work>/child.log].
    Returns true iff it exited with status 0. *)
let run_process cfg argv =
  let log =
    Unix.openfile (Filename.concat cfg.work "child.log") [ Unix.O_WRONLY; O_CREAT; O_APPEND ] 0o644
  in
  let stdin, eof = Unix.pipe ~cloexec:true () in
  Unix.close eof;
  let pid = Unix.create_process argv.(0) argv stdin log log in
  Unix.close log;
  Unix.close stdin;
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status = Unix.WEXITED 0
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

(** A fresh, empty directory under the scratch directory. *)
let fresh_dir cfg name =
  let d = Filename.concat cfg.work name in
  rm_rf d;
  mkdir_p d;
  d

let file_size path = (Unix.stat path).Unix.st_size
