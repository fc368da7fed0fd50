(** The repo_fleet workload: a generated fleet repository (generator
    seed = [--seed]) opened through its [.xpdlidx] sidecar.  One op is a
    round of repository calls: a cold [open_root] that builds the index,
    five warm opens, the first [compose_by_name "sys0000"], and
    [validate_all] at the default jobs.  Heavy on parse, elaborate and
    validate, with no bootstrap and no serving; a warm open parses no
    file, so it isolates sidecar decode and the stat walk. *)

open Xpdl_core
module Repo = Xpdl_repo.Repo
module Repo_index = Xpdl_repo.Repo_index
module Gen = Xpdl_gen.Gen
module Parse = Xpdl_xml.Parse

let spec (cfg : Bench.config) =
  {
    Gen.default_repo_spec with
    rs_models = (if cfg.smoke then 300 else 3000);
    rs_dirs = 16;
    rs_corrupt = 0.01;
    rs_shadow = 0.02;
    rs_systems = 4;
  }

let render (vs : Repo.validation list) =
  String.concat "\n"
    (List.map
       (fun (v : Repo.validation) ->
         Fmt.str "%s %s %a" v.Repo.va_ident v.va_kind
           Fmt.(list ~sep:semi Diagnostic.pp)
           v.va_errors)
       vs)

let open_repo dir =
  let r = Repo.create () in
  Repo.open_root r dir;
  r

let compose_key = function
  | Ok (c : Repo.composed) ->
      Fmt.str "%016x %d"
        (Xpdl_store.Wal.model_fingerprint c.Repo.model)
        (List.length (Diagnostic.errors c.comp_diags))
  | Error msg -> "error " ^ msg

type round = {
  cold : Repo.stats;  (** after the cold open *)
  warm : Repo.stats;  (** after the last warm open *)
  composed : Repo.stats;  (** after the first composition *)
  compose : string;  (** {!compose_key} of the composition *)
  validation : string;  (** {!render}ed validate-all result *)
}

let round dir =
  Bench.rm_rf (Repo_index.path_for_root dir);
  let cold = open_repo dir in
  let warm = ref cold in
  for _ = 1 to 5 do
    warm := open_repo dir
  done;
  let warm_stats = Repo.stats !warm in
  let compose = compose_key (Repo.compose_by_name !warm "sys0000") in
  let composed = Repo.stats !warm in
  let validation = render (Repo.validate_all !warm) in
  { cold = Repo.stats cold; warm = warm_stats; composed; compose; validation }

(* Descriptor files in [Repo.add_root]'s scan order: names sorted per
   directory, subdirectories recursed in place. *)
let rec scan_order dir =
  let names = Sys.readdir dir in
  Array.sort String.compare names;
  Array.to_list names
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then scan_order path
         else if Filename.check_suffix name ".xpdl" || Filename.check_suffix name ".xml" then
           [ path ]
         else [])

(* Parse and elaborate every file, each call inside a span; later
   definitions shadow earlier ones, as in the repository. *)
let parse_all tr files =
  let table = Hashtbl.create 4096 in
  List.iter
    (fun file ->
      match Bench.span tr "xml.parse" (fun () -> Parse.file_recover ~lenient:true file) with
      | Ok (Some x, _) ->
          let nodes =
            match x.Xpdl_xml.Dom.tag with
            | "xpdl" | "repository" -> Xpdl_xml.Dom.child_elements x
            | _ -> [ x ]
          in
          List.iter
            (fun node ->
              let e, _ = Bench.span tr "core.elaborate" (fun () -> Elaborate.of_xml node) in
              Option.iter (fun id -> Hashtbl.replace table id e) (Model.identifier e))
            nodes
      | Ok (None, _) | Error _ -> ())
    files;
  table

(* A round's layer calls, each inside a span: the cold open, the five
   warm opens and the first composition as whole calls, then
   validate-all's parse and elaboration of every file and its
   per-descriptor validation.  The sidecar save (part of the cold open)
   and decode (part of a warm open) are timed again on their own.
   Returns the rendered validation. *)
let replay tr dir files =
  let span name f = Bench.span tr name f in
  let sidecar = Repo_index.path_for_root dir in
  Bench.rm_rf sidecar;
  ignore (span "repo.open_cold" (fun () -> open_repo dir));
  let image = In_channel.with_open_bin sidecar In_channel.input_all in
  let index = match Repo_index.decode image with Ok i -> i | Error _ -> failwith "bad sidecar" in
  ignore (span "repo_index.save" (fun () -> Repo_index.save ~root:dir index));
  let warm = ref (Repo.create ()) in
  for _ = 1 to 5 do
    warm := span "repo.open_warm" (fun () -> open_repo dir);
    ignore (span "repo_index.decode" (fun () -> Repo_index.decode image))
  done;
  ignore (span "repo.compose" (fun () -> Repo.compose_by_name !warm "sys0000"));
  let table = parse_all tr files in
  let lookup id = Hashtbl.find_opt table id in
  let validate e =
    if Schema.equal_kind e.Model.kind Schema.System then begin
      let resolved, res_diags = Inheritance.resolve_lenient lookup e in
      let expanded, inst_diags = Instantiate.run ~env:[] resolved in
      Diagnostic.errors (res_diags @ inst_diags @ Validate.run ~lookup expanded)
    end
    else Diagnostic.errors (Validate.run ~lookup e)
  in
  Hashtbl.fold (fun id e acc -> (id, e) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (id, e) ->
         {
           Repo.va_ident = id;
           va_kind = Schema.tag_of_kind e.Model.kind;
           va_errors = span "core.validate" (fun () -> validate e);
         })
  |> render

(* the sidecar save and decode run inside the opens, so they are left out *)
let covering =
  [ "repo.open_cold"; "repo.open_warm"; "repo.compose"; "xml.parse"; "core.elaborate";
    "core.validate" ]

let generate cfg = Gen.repo_files (Gen.create ~seed:cfg.Bench.seed) (spec cfg)

let run (cfg : Bench.config) =
  let tally = Bench.tally () in
  (* set-up: generate the fleet's files; a timed run generates them four
     more times, spread over the run, and each must equal the first.
     Writing them to disk is left out: on the reference host it took
     60 ms to 1 s for the same files, with no pattern. *)
  let fleet, first_setup = Bench.timed (fun () -> generate cfg) in
  let dir = Bench.fresh_dir cfg "fleet" in
  Gen.write_repo ~dir fleet;
  let reference = round dir in
  Bench.record tally
    (reference.warm.Repo.parsed_files = 0 && not (String.starts_with ~prefix:"error" reference.compose))
    "the reference round parsed files on a warm open or failed to compose";
  let check (r : round) =
    Bench.record tally
      (String.equal r.validation reference.validation && String.equal r.compose reference.compose)
      "round output differs from the reference round"
  in
  let validate_check ~jobs vs =
    Bench.record tally
      (String.equal (render vs) reference.validation)
      "validate-all at jobs = %d differs from the reference round" jobs
  in
  let min_ops = if cfg.smoke then 1 else 3 in
  if not cfg.trace then begin
    let same_fleet = ref true in
    let latency, setup_times =
      Bench.timed_loop ~seconds:cfg.seconds ~min_ops ~setups:4
        (fun () -> if generate cfg <> fleet then same_fleet := false)
        (fun () -> round dir)
        check
    in
    let rss = Bench.peak_rss_mb "self" in
    Bench.record tally !same_fleet "a fleet generated with the same seed differs from the first";
    (* the eager reference path and the parallel path must agree *)
    let eager = Repo.create () in
    Repo.add_root eager dir;
    validate_check ~jobs:1 (Repo.validate_all eager);
    validate_check ~jobs:Bench.nproc (Repo.validate_all ~jobs:Bench.nproc (open_repo dir));
    ( tally,
      ("setup_s", Bench.median (Array.append [| first_setup |] setup_times))
      :: ("peak_rss_mb", rss) :: latency )
  end
  else begin
    (* the parallel arm: validate-all at jobs = nproc against jobs = 1 *)
    let arm jobs =
      let repo = open_repo dir in
      let vs, dt = Bench.timed_compacted (fun () -> Repo.validate_all ~jobs repo) in
      validate_check ~jobs vs;
      dt
    in
    let arms = Array.init 3 (fun _ -> (arm 1, arm Bench.nproc)) in
    let speedup = Bench.median (Array.map fst arms) /. Bench.median (Array.map snd arms) in
    let files = scan_order dir in
    let tr = Bench.tracer () in
    let untraced = ref 0. and alloc = ref 0. in
    let pairs =
      Bench.repeat ~seconds:cfg.seconds ~min_ops:1 (fun _ ->
          let r, dt = Bench.timed_compacted (fun () -> round dir) in
          untraced := !untraced +. dt;
          check r;
          Gc.compact ();
          let a0 = Gc.allocated_bytes () in
          let validation = replay tr dir files in
          alloc := !alloc +. (Gc.allocated_bytes () -. a0);
          Bench.record tally
            (String.equal validation reference.validation)
            "replayed validation differs from validate-all")
    in
    ( tally,
      Bench.shares tr ~ops:pairs ~op_mean:(!untraced /. float_of_int pairs) ~covering
      @ [
          ("gc.alloc_mb_per_op", !alloc /. float_of_int pairs /. 1e6);
          ("repo.files_parsed_cold", float_of_int reference.cold.Repo.parsed_files);
          ("repo.files_parsed_warm", float_of_int reference.warm.Repo.parsed_files);
          ( "repo.files_parsed_first_compose",
            float_of_int (reference.composed.Repo.parsed_files - reference.warm.Repo.parsed_files) );
          ("repo.parallel_speedup", speedup);
          ( "repo_index.sidecar_kb",
            float_of_int (Bench.file_size (Repo_index.path_for_root dir)) /. 1024. );
        ] )
  end
