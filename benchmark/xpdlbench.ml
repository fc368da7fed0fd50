(** xpdlbench: run one workload of the repository benchmark in this
    process and print its result as the last line of standard output.

    {v xpdlbench --workload NAME --seed N --seconds S --trace 0|1
                 --xpdltool PATH [--smoke] v}

    Run it from the root of a checkout; [benchmark/run.py] builds it and
    passes the arguments through (see benchmark/README.md). *)

let workloads =
  [
    ("compose_liu", Compose_wl.run);
    ("serve_mixed", fun cfg -> Serve_wl.run cfg Serve_wl.mixed);
    ("serve_durable", fun cfg -> Serve_wl.run cfg Serve_wl.durable);
    ("dse_sweep", Dse_wl.run);
    ("repo_fleet", Repo_wl.run);
  ]

(* Metric names and units, as BENCHMARK.json lists them: a timed run
   reports every end-to-end metric, a traced run every per-layer one. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("throughput_ops_s", "ops/s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  List.map (fun s -> (s ^ ".share", "frac")) Bench.span_names
  @ List.map
      (fun c -> (Fmt.str "client.%s.share" c, "frac"))
      (Array.to_list Serve_wl.classes)
  @ [
      ("serve.wait.share", "frac");
      ("trace.op_ms", "ms");
      ("trace.coverage_frac", "frac");
      ("gc.alloc_mb_per_op", "MB");
      ("toolchain.ir_nodes", "count");
      ("microbench.isas_measured", "count");
      ("hub.snapshot_builds_per_pin", "ratio");
      ("wal.bytes_per_edit", "B");
      ("wal.checkpoints_per_kop", "count");
      ("dse.useful_frac", "frac");
      ("dse.parallel_speedup", "x");
      ("repo.files_parsed_cold", "count");
      ("repo.files_parsed_warm", "count");
      ("repo.files_parsed_first_compose", "count");
      ("repo.parallel_speedup", "x");
      ("repo_index.sidecar_kb", "KB");
    ]

let json_string s = Fmt.str "%S" s

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let smoke = ref false and xpdltool = ref "" in
  let usage = "xpdlbench --workload NAME --seed N --seconds S --trace 0|1 --xpdltool PATH [--smoke]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S measured run length");
      ("--trace", Arg.Set_int trace, "0|1 timed run (0) or traced per-layer run (1)");
      ("--xpdltool", Arg.Set_string xpdltool, "PATH the xpdltool binary the serve workloads spawn");
      ("--smoke", Arg.Set smoke, " scaled-down inputs, for the test-suite smoke rule");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        Fmt.epr "xpdlbench: unknown workload %S; one of: %s@." !workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  if not (Sys.file_exists "models" && Sys.file_exists Dse_wl.template_file) then begin
    Fmt.epr "xpdlbench: run from the root of a checkout (no models/ or %s here)@."
      Dse_wl.template_file;
    exit 2
  end;
  let work = Filename.concat ".bench_work" (string_of_int (Unix.getpid ())) in
  Bench.mkdir_p work;
  let cfg =
    {
      Bench.workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      smoke = !smoke;
      xpdltool = !xpdltool;
      work;
    }
  in
  let tally, values =
    Fun.protect
      ~finally:(fun () ->
        Bench.rm_rf work;
        try Unix.rmdir ".bench_work" with Unix.Unix_error _ -> ())
      (fun () -> run cfg)
  in
  let table = if cfg.trace then per_layer else end_to_end in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name table) then failwith ("unlisted metric " ^ name))
    values;
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.assoc_opt name values with
        | Some v when Float.is_finite v -> (name, v, unit_)
        | Some _ ->
            Bench.record tally false "%s is not a finite number" name;
            (name, 0., unit_)
        | None when cfg.trace -> (name, 0., unit_) (* a layer this workload does not use *)
        | None -> failwith ("no value for " ^ name))
      table
  in
  Fmt.pr "host {\"workload\":%s,\"seed\":%d,\"seconds\":%g,\"trace\":%d,\"smoke\":%b,\"nproc\":%d,\"ocaml\":%s,\"os\":%s}@."
    (json_string cfg.workload) cfg.seed cfg.seconds !trace cfg.smoke Bench.nproc
    (json_string Sys.ocaml_version) (json_string Sys.os_type);
  Fmt.pr "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}@."
    (tally.Bench.failed = 0) tally.attempted tally.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit_) ->
            Fmt.str "%s: {\"value\": %.17g, \"unit\": %s}" (json_string name) v (json_string unit_))
          metrics))
