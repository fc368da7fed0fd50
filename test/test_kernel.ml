(* Tests for the shared kernel: one case per function. *)

module K = Xpdl_kernel

let case name f = Alcotest.test_case name `Quick f

let test_iter () =
  List.iter
    (fun n ->
      let run jobs =
        let slots = Array.make n (-1) in
        let calls = Atomic.make 0 in
        K.iter ~jobs n (fun i ->
            Atomic.incr calls;
            slots.(i) <- i * i);
        Alcotest.(check int) (Fmt.str "n=%d jobs=%d: one call per index" n jobs) n
          (Atomic.get calls);
        slots
      in
      let seq = run 1 in
      List.iter
        (fun jobs ->
          Alcotest.(check (array int)) (Fmt.str "n=%d jobs=%d = jobs 1" n jobs) seq (run jobs))
        [ 2; 7 ])
    [ 0; 1; 3; 100 ];
  (* a raising call surfaces after every domain has been joined *)
  match K.iter ~jobs:4 64 (fun i -> if i = 13 then failwith "boom") with
  | () -> Alcotest.fail "the exception was lost"
  | exception Failure m -> Alcotest.(check string) "re-raised" "boom" m

let test_write () =
  let dir = Filename.temp_file "xpdl-kernel" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "f" in
  let read () = In_channel.with_open_bin path In_channel.input_all in
  K.write ~path "first contents";
  K.write ~path "second";
  Alcotest.(check string) "contents replaced" "second" (read ());
  Alcotest.(check bool) "no tmp left" false (Sys.file_exists (path ^ ".tmp"));
  (* the rename fails onto a non-empty directory: the tmp file goes *)
  let sub = Filename.concat dir "sub" in
  Unix.mkdir sub 0o755;
  K.write ~path:(Filename.concat sub "x") "x";
  (match K.write ~path:sub "data" with
  | () -> Alcotest.fail "rename over a directory must fail"
  | exception Unix.Unix_error _ -> ());
  Alcotest.(check bool) "tmp removed after a failed rename" false (Sys.file_exists (sub ^ ".tmp"));
  (* a missing target directory fails before anything is written *)
  let missing = Filename.concat dir "missing/f" in
  (match K.write ~path:missing "data" with
  | () -> Alcotest.fail "write into a missing directory must fail"
  | exception Unix.Unix_error _ -> ());
  Alcotest.(check bool) "no tmp in a missing directory" false (Sys.file_exists (missing ^ ".tmp"));
  List.iter Sys.remove [ path; Filename.concat sub "x" ];
  List.iter Unix.rmdir [ sub; dir ]

let test_remove_tree () =
  let fresh () =
    let p = Filename.temp_file "xpdl-kernel" "" in
    Sys.remove p;
    p
  in
  let touch path = Out_channel.with_open_bin path (fun oc -> output_string oc "x") in
  (* a nested tree, with a link to a directory outside it *)
  let outside = fresh () in
  Unix.mkdir outside 0o755;
  touch (Filename.concat outside "kept");
  let root = fresh () in
  Unix.mkdir root 0o755;
  let sub = Filename.concat root "a" in
  Unix.mkdir sub 0o755;
  Unix.mkdir (Filename.concat sub "b") 0o755;
  touch (Filename.concat sub "f");
  touch (Filename.concat (Filename.concat sub "b") "g");
  Unix.symlink outside (Filename.concat root "link");
  K.remove_tree root;
  Alcotest.(check bool) "tree gone" false (Sys.file_exists root);
  Alcotest.(check bool) "link not followed" true (Sys.file_exists (Filename.concat outside "kept"));
  (* a plain file *)
  let file = Filename.concat outside "kept" in
  K.remove_tree file;
  Alcotest.(check bool) "file gone" false (Sys.file_exists file);
  (* a missing path returns without raising *)
  K.remove_tree file;
  K.remove_tree outside;
  Alcotest.(check bool) "empty directory gone" false (Sys.file_exists outside)

let test_checksum () =
  let input = String.init 24 (fun i -> Char.chr (((i * 37) + 11) land 0xff)) in
  let base = K.checksum input in
  Alcotest.(check int) "sub over the whole string" base (K.checksum_sub input 0 24);
  for bit = 0 to (24 * 8) - 1 do
    let b = Bytes.of_string input in
    let byte = bit / 8 in
    Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl (bit mod 8))));
    if K.checksum (Bytes.to_string b) = base then
      Alcotest.failf "flipping bit %d goes unnoticed" bit
  done

let test_json () =
  Alcotest.(check string) "string" {|"q\"b\\n\nr\rt\tc\u0001é"|}
    (K.json_string "q\"b\\n\nr\rt\tc\001é");
  Alcotest.(check string) "finite float" "0.10000000000000001" (K.json_float 0.1);
  Alcotest.(check string) "infinity" {|"infinity"|} (K.json_float Float.infinity);
  Alcotest.(check string) "nan" {|"nan"|} (K.json_float Float.nan)

let () =
  Alcotest.run "kernel"
    [
      ( "kernel",
        [
          case "iter is jobs-independent" test_iter;
          case "write replaces atomically" test_write;
          case "remove_tree" test_remove_tree;
          case "checksum sees every bit" test_checksum;
          case "json spelling" test_json;
        ] );
    ]
