(* Error recovery and coded diagnostics: the parser reports every syntax
   error in a document in one run, the repository survives corrupt
   descriptor files, and xpdltool surfaces it all with stable XPDLnnn
   codes in both text and JSON. *)

open Xpdl_core

let contains affix s =
  let al = String.length affix and sl = String.length s in
  let rec go i = i + al <= sl && (String.sub s i al = affix || go (i + 1)) in
  go 0

let syntax_fixture = "fixtures/errors/syntax_errors.xpdl"
let semantic_fixture = "fixtures/errors/semantic_errors.xpdl"

(* --- parser recovery (library level) --- *)

let recover_fixture () =
  match Xpdl_xml.Parse.file_recover ~lenient:true syntax_fixture with
  | Error msg -> Alcotest.failf "cannot read fixture: %s" msg
  | Ok parsed -> parsed

let test_all_errors_reported () =
  let _, errs = recover_fixture () in
  let codes = List.map (fun (e : Xpdl_xml.Parse.error) -> e.err_code) errs in
  Alcotest.(check (list string))
    "three distinct errors, in document order"
    [ "XPDL005"; "XPDL003"; "XPDL004" ] codes;
  let lines = List.map (fun (e : Xpdl_xml.Parse.error) -> e.err_pos.Xpdl_xml.Dom.line) errs in
  Alcotest.(check (list int)) "positioned on the offending lines" [ 3; 4; 5 ] lines;
  List.iter
    (fun (e : Xpdl_xml.Parse.error) ->
      Alcotest.(check string) "file recorded" syntax_fixture e.err_pos.Xpdl_xml.Dom.file;
      Alcotest.(check bool) "column recorded" true (e.err_pos.Xpdl_xml.Dom.column > 0))
    errs

let test_recovered_tree_keeps_siblings () =
  let root, _ = recover_fixture () in
  match root with
  | None -> Alcotest.fail "no root recovered"
  | Some x ->
      let tags = List.map (fun c -> c.Xpdl_xml.Dom.tag) (Xpdl_xml.Dom.child_elements x) in
      (* elements after the malformed ones survive as siblings: the
         mismatched </cpu> closes <cpu name="bad">, it does not swallow
         the rest of the document *)
      Alcotest.(check (list string))
        "all five children survive"
        [ "cpu"; "cache"; "cpu"; "memory"; "cpu" ] tags;
      let last = List.nth (Xpdl_xml.Dom.child_elements x) 4 in
      Alcotest.(check (option string))
        "trailing sibling intact" (Some "ok2")
        (Xpdl_xml.Dom.attribute last "name")

let test_strict_mode_still_raises () =
  match Xpdl_xml.Parse.file ~lenient:true syntax_fixture with
  | Ok _ -> Alcotest.fail "non-recovering parse accepted a malformed document"
  | Error _ -> ()

(* --- repository: one corrupt file does not block its siblings --- *)

let with_temp_repo files f =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "xpdl_diag_repo" in
  Xpdl_kernel.remove_tree dir;
  Sys.mkdir dir 0o755;
  List.iter
    (fun (name, content) ->
      let oc = open_out (Filename.concat dir name) in
      output_string oc content;
      close_out oc)
    files;
  Fun.protect ~finally:(fun () -> Xpdl_kernel.remove_tree dir) (fun () -> f dir)

let test_corrupt_file_does_not_block_siblings () =
  let corrupt =
    "<xpdl>\n  <cpu name=\"salvaged\"/>\n  <cache name=\"L1\" size=\"32\" size=\"64\"/>\n  \
     <<<garbage\n</xpdl>\n"
  in
  let good = "<cpu name=\"sibling_ok\"/>\n" in
  with_temp_repo
    [ ("a_corrupt.xpdl", corrupt); ("b_good.xpdl", good) ]
    (fun dir ->
      let repo = Xpdl_repo.Repo.create () in
      Xpdl_repo.Repo.add_root repo dir;
      Alcotest.(check bool)
        "sibling file indexed" true
        (Xpdl_repo.Repo.find repo "sibling_ok" <> None);
      Alcotest.(check bool)
        "well-formed part of corrupt file indexed" true
        (Xpdl_repo.Repo.find repo "salvaged" <> None);
      let parse_errors =
        List.filter
          (fun (d : Diagnostic.t) ->
            Diagnostic.is_error d && String.length d.code = 7 && String.sub d.code 0 5 = "XPDL0")
        @@ Xpdl_repo.Repo.diagnostics repo
      in
      Alcotest.(check bool) "parse errors recorded" true (parse_errors <> []))

(* --- diagnostic utilities --- *)

let test_registry_sane () =
  let codes = List.map (fun (c, _, _) -> c) Diagnostic.registry in
  let sorted = List.sort_uniq String.compare codes in
  Alcotest.(check int) "codes are unique" (List.length codes) (List.length sorted);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (c ^ " well-formed") true
        (String.length c = 7
        && String.sub c 0 4 = "XPDL"
        && String.for_all (fun ch -> ch >= '0' && ch <= '9') (String.sub c 4 3)))
    codes;
  Alcotest.(check bool) "XPDL003 described" true (Diagnostic.describe "XPDL003" <> None);
  (* the XPDL4xx band: incremental model store *)
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " registered") true (Diagnostic.describe c <> None))
    [ "XPDL401"; "XPDL402"; "XPDL403"; "XPDL404" ];
  Alcotest.(check bool) "XPDL410 retired" true (Diagnostic.describe "XPDL410" = None);
  (* the XPDL5xx band: deployment-bootstrap robustness *)
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " registered") true (Diagnostic.describe c <> None))
    [ "XPDL500"; "XPDL501"; "XPDL502"; "XPDL503"; "XPDL504"; "XPDL505"; "XPDL506"; "XPDL507";
      "XPDL508" ];
  Alcotest.(check bool) "XPDL504 defaults to info" true
    (Diagnostic.default_severity "XPDL504" = Some Diagnostic.Info);
  (* the XPDL6xx band: runtime-model codec *)
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " registered") true (Diagnostic.describe c <> None);
      Alcotest.(check bool) (c ^ " is an error") true
        (Diagnostic.default_severity c = Some Diagnostic.Error))
    [ "XPDL601"; "XPDL602"; "XPDL603"; "XPDL604"; "XPDL605"; "XPDL606"; "XPDL607" ];
  (* the XPDL7xx band: model-query server protocol *)
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " registered") true (Diagnostic.describe c <> None))
    [ "XPDL700"; "XPDL701"; "XPDL702"; "XPDL703"; "XPDL704"; "XPDL705"; "XPDL706"; "XPDL707" ];
  Alcotest.(check bool) "XPDL707 defaults to info" true
    (Diagnostic.default_severity "XPDL707" = Some Diagnostic.Info);
  Alcotest.(check bool) "unknown code undescribed" true (Diagnostic.describe "XPDL999" = None)

let test_cap () =
  let ds =
    [
      Diagnostic.error ~code:"XPDL001" "one";
      Diagnostic.warning "in between";
      Diagnostic.error ~code:"XPDL002" "two";
      Diagnostic.error ~code:"XPDL003" "three";
    ]
  in
  let capped = Diagnostic.cap ~max_errors:2 ds in
  Alcotest.(check int)
    "two errors kept" 2
    (List.length (Diagnostic.errors capped));
  (match List.rev capped with
  | last :: _ ->
      Alcotest.(check bool) "summary is info" true (last.Diagnostic.severity = Diagnostic.Info);
      Alcotest.(check bool)
        "summary counts the rest" true
        (contains "1 further error" last.Diagnostic.message)
  | [] -> Alcotest.fail "capped list empty");
  Alcotest.(check int)
    "cap above total is identity" (List.length ds)
    (List.length (Diagnostic.cap ~max_errors:10 ds))

let test_json () =
  let d = Diagnostic.error ~code:"XPDL005" {|duplicate "size"|} in
  let j = Diagnostic.to_json d in
  Alcotest.(check bool) "code serialized" true (contains {|"code":"XPDL005"|} j);
  Alcotest.(check bool)
    "quotes escaped" true
    (contains {|duplicate \"size\"|} j);
  let report = Diagnostic.list_to_json [ d; Diagnostic.warning "w" ] in
  Alcotest.(check bool) "error count" true (contains {|"errors":1|} report);
  Alcotest.(check bool) "warning count" true (contains {|"warnings":1|} report)

(* --- the CLI end to end --- *)

let tool = "../bin/xpdltool.exe"

(* Capture stdout AND stderr: text diagnostics go to stderr, JSON to stdout. *)
let run_tool args =
  let out_file = Filename.temp_file "xpdldiag" ".out" in
  let cmd =
    Fmt.str "%s %s > %s 2>&1" (Filename.quote tool)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out_file)
  in
  let code = Sys.command cmd in
  let ic = open_in_bin out_file in
  let output = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out_file;
  (code, output)

let test_cli_text_reports_all () =
  let code, out = run_tool [ "validate"; syntax_fixture ] in
  Alcotest.(check int) "nonzero exit" 1 code;
  List.iter
    (fun affix ->
      Alcotest.(check bool) (affix ^ " present") true (contains affix out))
    [
      "syntax_errors.xpdl:3:30: error[XPDL005]";
      "syntax_errors.xpdl:4:33: error[XPDL003]";
      "syntax_errors.xpdl:5:21: error[XPDL004]";
    ]

let test_cli_json_reports_all () =
  let code, out = run_tool [ "validate"; "--format"; "json"; syntax_fixture ] in
  Alcotest.(check int) "nonzero exit" 1 code;
  List.iter
    (fun affix ->
      Alcotest.(check bool) (affix ^ " present") true (contains affix out))
    [ {|"code":"XPDL005"|}; {|"code":"XPDL003"|}; {|"code":"XPDL004"|}; {|"errors":3|}; {|"line":4|} ]

let test_cli_semantic_codes () =
  let code, out = run_tool [ "validate"; semantic_fixture ] in
  Alcotest.(check int) "nonzero exit" 1 code;
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " reported") true (contains c out))
    [ "[XPDL104]"; "[XPDL213]"; "[XPDL215]"; "[XPDL208]" ]

let test_cli_max_errors () =
  let code, out = run_tool [ "validate"; "--max-errors"; "1"; syntax_fixture ] in
  Alcotest.(check int) "still fails" 1 code;
  Alcotest.(check bool) "first error shown" true (contains "[XPDL005]" out);
  Alcotest.(check bool) "later errors suppressed" true
    (not (contains "[XPDL004]" out));
  Alcotest.(check bool) "suppression summarized" true
    (contains "further error" out)

let test_cli_clean_file_ok () =
  (* a well-formed bundled descriptor validated by file path: exit 0 *)
  let code, _ =
    run_tool [ "validate"; "--format"; "json"; "../models/hardware/movidius_myriad1.xpdl" ]
  in
  Alcotest.(check int) "clean file passes" 0 code

let case name f = Alcotest.test_case name `Quick f

let () =
  let cli_cases =
    if Sys.file_exists tool then
      [
        case "cli: text lists every error" test_cli_text_reports_all;
        case "cli: json lists every error" test_cli_json_reports_all;
        case "cli: semantic codes" test_cli_semantic_codes;
        case "cli: --max-errors" test_cli_max_errors;
        case "cli: clean file OK" test_cli_clean_file_ok;
      ]
    else []
  in
  Alcotest.run "diagnostics"
    [
      ( "recovery",
        [
          case "all syntax errors in one run" test_all_errors_reported;
          case "recovered tree keeps siblings" test_recovered_tree_keeps_siblings;
          case "strict mode still raises" test_strict_mode_still_raises;
          case "corrupt file does not block repo scan" test_corrupt_file_does_not_block_siblings;
        ] );
      ( "diagnostic",
        [
          case "registry sane" test_registry_sane;
          case "cap" test_cap;
          case "json" test_json;
        ] );
      ("cli", cli_cases);
    ]
