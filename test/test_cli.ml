(* Integration tests for the xpdltool CLI: every subcommand exercised
   against the bundled repository through the real binary. *)

let tool = "../bin/xpdltool.exe"

(* Run the tool, capture stdout (and stderr with [~stderr:true]),
   return (exit_code, output). *)
let run_tool ?(stderr = false) args =
  let out_file = Filename.temp_file "xpdltool" ".out" in
  let cmd =
    Fmt.str "%s %s > %s %s" (Filename.quote tool)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out_file)
      (if stderr then "2>&1" else "2>/dev/null")
  in
  let code = Sys.command cmd in
  let ic = open_in_bin out_file in
  let output = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out_file;
  (code, output)

let contains ~affix s =
  let al = String.length affix and sl = String.length s in
  let rec go i = i + al <= sl && (String.sub s i al = affix || go (i + 1)) in
  go 0

let check_ok name (code, output) =
  if code <> 0 then Alcotest.failf "%s exited with %d:\n%s" name code output;
  output

let test_list () =
  let out = check_ok "list" (run_tool [ "list" ]) in
  Alcotest.(check bool) "lists the cluster" true (contains ~affix:"XScluster" out);
  Alcotest.(check bool) "counts" true (contains ~affix:"descriptors" out)

let test_validate () =
  let out = check_ok "validate" (run_tool [ "validate"; "Intel_Xeon_E5_2630L" ]) in
  Alcotest.(check bool) "reports OK" true (contains ~affix:"OK" out)

let test_validate_all () =
  let out = check_ok "validate-all" (run_tool [ "validate-all" ]) in
  Alcotest.(check bool) "no errors" true (contains ~affix:"0 with errors" out)

let test_validate_unknown () =
  let code, _ = run_tool [ "validate"; "no_such_model" ] in
  Alcotest.(check bool) "nonzero exit" true (code <> 0)

let test_compose_summary () =
  let out = check_ok "compose" (run_tool [ "compose"; "liu_gpu_server"; "--summary" ]) in
  Alcotest.(check bool) "element count" true (contains ~affix:"5173 elements" out);
  Alcotest.(check bool) "core count" true (contains ~affix:"2500 cores" out)

let test_compose_with_config () =
  let out =
    check_ok "compose --set"
      (run_tool
         [ "compose"; "liu_gpu_server"; "--summary"; "--set"; "L1size=16:KB"; "--set";
           "shmsize=48:KB" ])
  in
  Alcotest.(check bool) "still composes" true (contains ~affix:"5173 elements" out)

let test_compose_bad_config_rejected () =
  let code, _ =
    run_tool
      [ "compose"; "liu_gpu_server"; "--summary"; "--set"; "L1size=48:KB"; "--set";
        "shmsize=48:KB" ]
  in
  Alcotest.(check bool) "constraint violation fails" true (code <> 0)

let test_process_and_query () =
  let rt = Filename.temp_file "cli" ".xrt" in
  ignore (check_ok "process" (run_tool [ "process"; "myriad_server"; "-o"; rt ]));
  let cores = check_ok "query cores" (run_tool [ "query"; rt; "cores" ]) in
  Alcotest.(check string) "13 cores" "13" (String.trim cores);
  let host = check_ok "query id" (run_tool [ "query"; rt; "id:myriad_host" ]) in
  Alcotest.(check bool) "path shown" true (contains ~affix:"myriad_server/myriad_host" host);
  Sys.remove rt

(* A damaged runtime-model file is a coded diagnostic and exit 1, not an
   uncaught exception (exit 125). *)
let test_query_corrupt fixture code () =
  let exit_code, out =
    run_tool ~stderr:true [ "query"; Filename.concat "fixtures/errors" fixture; "cores" ]
  in
  Alcotest.(check int) (fixture ^ " exit code") 1 exit_code;
  Alcotest.(check bool) (fixture ^ " names " ^ code) true (contains ~affix:("[" ^ code ^ "]") out);
  Alcotest.(check bool) "no uncaught exception" false (contains ~affix:"uncaught" out)

let test_analyze () =
  let out = check_ok "analyze" (run_tool [ "analyze"; "XScluster" ]) in
  Alcotest.(check bool) "IB links listed" true (contains ~affix:"infiniband" out || contains ~affix:"conn3" out);
  Alcotest.(check bool) "graph summary" true (contains ~affix:"communication graph" out)

let test_control () =
  let out = check_ok "control" (run_tool [ "control"; "phi_server" ]) in
  Alcotest.(check bool) "master" true (contains ~affix:"phi_host (master)" out);
  Alcotest.(check bool) "pattern" true (contains ~affix:"host_coprocessor" out)

let test_emit_xsd () =
  let out = check_ok "emit-xsd" (run_tool [ "emit-xsd" ]) in
  match Xpdl_xml.Parse.string out with
  | Ok root -> Alcotest.(check string) "well-formed schema" "xs:schema" root.Xpdl_xml.Dom.tag
  | Error msg -> Alcotest.failf "emitted xsd does not parse: %s" msg

let test_emit_cpp () =
  let out = check_ok "emit-cpp" (run_tool [ "emit-cpp" ]) in
  Alcotest.(check bool) "header" true (contains ~affix:"xpdl_init" out)

let test_emit_uml () =
  let out = check_ok "emit-uml" (run_tool [ "emit-uml"; "metamodel" ]) in
  Alcotest.(check bool) "plantuml" true (contains ~affix:"@startuml" out)

let test_to_json () =
  let out = check_ok "to-json" (run_tool [ "to-json"; "odroid_xu3" ]) in
  (match Xpdl_toolchain.Json.check out with
  | () -> ()
  | exception Xpdl_toolchain.Json.Invalid_json msg -> Alcotest.failf "invalid JSON: %s" msg);
  Alcotest.(check bool) "system id" true (contains ~affix:{|"id": "odroid_xu3"|} out)

let test_to_pdl () =
  let out = check_ok "to-pdl" (run_tool [ "to-pdl"; "liu_gpu_server" ]) in
  let p = Xpdl_pdl.Pdl.of_string out in
  Alcotest.(check bool) "one master" true
    (List.length (Xpdl_pdl.Pdl.pus_with_role p Xpdl_pdl.Pdl.Master) = 1)

let test_bootstrap () =
  let out =
    check_ok "bootstrap"
      (run_tool [ "bootstrap"; "liu_gpu_server"; "--fault-rate"; "0.3"; "--fault-seed"; "9" ])
  in
  Alcotest.(check bool) "quality labels listed" true (contains ~affix:"measured" out);
  Alcotest.(check bool) "fault accounting" true (contains ~affix:"fault reads" out)

let test_bootstrap_json_deterministic () =
  let args =
    [ "bootstrap"; "liu_gpu_server"; "--fault-rate"; "0.3"; "--fault-seed"; "9"; "--format";
      "json" ]
  in
  let a = check_ok "bootstrap json" (run_tool args) in
  let b = check_ok "bootstrap json again" (run_tool args) in
  Alcotest.(check string) "byte-identical reports" a b;
  Alcotest.(check bool) "benches serialized" true (contains ~affix:{|"benches":[|} a);
  Alcotest.(check bool) "quality serialized" true (contains ~affix:{|"quality":|} a)

let test_emit_drivers () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "cli_drivers" in
  ignore (check_ok "emit-drivers" (run_tool [ "emit-drivers"; "liu_gpu_server"; "-d"; dir ]));
  Alcotest.(check bool) "driver file" true (Sys.file_exists (Filename.concat dir "fadd.c"));
  Xpdl_kernel.remove_tree dir

let case name f = Alcotest.test_case name `Quick f

let () =
  (* the binary and the models are materialized relative to the test
     sandbox; skip gracefully if the layout ever changes *)
  if not (Sys.file_exists tool) then
    Fmt.epr "xpdltool binary not found at %s; skipping CLI tests@." tool
  else
    Alcotest.run "cli"
      [
        ( "xpdltool",
          [
            case "list" test_list;
            case "validate" test_validate;
            case "validate-all" test_validate_all;
            case "validate unknown" test_validate_unknown;
            case "compose --summary" test_compose_summary;
            case "compose --set" test_compose_with_config;
            case "compose bad config" test_compose_bad_config_rejected;
            case "process + query" test_process_and_query;
            case "query bad magic" (test_query_corrupt "bad_magic.xrt" "XPDL601");
            case "query truncated" (test_query_corrupt "truncated.xrt" "XPDL603");
            case "analyze" test_analyze;
            case "control" test_control;
            case "emit-xsd" test_emit_xsd;
            case "emit-cpp" test_emit_cpp;
            case "emit-uml" test_emit_uml;
            case "to-json" test_to_json;
            case "to-pdl" test_to_pdl;
            case "emit-drivers" test_emit_drivers;
            case "bootstrap" test_bootstrap;
            case "bootstrap json deterministic" test_bootstrap_json_deterministic;
          ] );
      ]
