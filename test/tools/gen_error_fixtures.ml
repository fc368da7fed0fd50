(* Writes the corrupt-input codec fixtures under test/fixtures/errors/.

   Each fixture starts from the same small, valid v2 runtime model and is
   then damaged in exactly one way, so every file maps to one stable
   XPDL6xx diagnostic (see test_toolchain.ml's "corrupt fixture files"
   test for the expected code per file).

   Usage: dune exec test/tools/gen_error_fixtures.exe -- <output-dir> *)

open Xpdl_toolchain

let source =
  {|<system name="fixture_box">
      <cpu name="cpu0" cores="4" frequency="2.5" frequency_unit="GHz">
        <core name="c0"/>
        <core name="c1"/>
      </cpu>
      <memory name="ram0" size="16" size_unit="GiB"/>
    </system>|}

let write dir name bytes =
  let path = Filename.concat dir (name ^ ".xrt") in
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc;
  Printf.printf "wrote %s (%d bytes)\n" path (String.length bytes)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let good = Ir.to_bytes (Ir.of_model (Xpdl_core.Elaborate.of_string_exn source)) in
  (* XPDL601: first magic byte clobbered *)
  let b = Bytes.of_string good in
  Bytes.set b 0 'Z';
  write dir "bad_magic" (Bytes.to_string b);
  (* XPDL602: version field (u64 at offset 6) bumped past anything we speak *)
  let b = Bytes.of_string good in
  Bytes.set_int64_le b 6 9L;
  write dir "bad_version" (Bytes.to_string b);
  (* XPDL602: version 1, the seed release's node-record stream, is no
     longer read *)
  let b = Bytes.of_string good in
  Bytes.set_int64_le b 6 1L;
  write dir "version_1" (Bytes.to_string b);
  (* XPDL603: sixteen bytes missing off the tail *)
  write dir "truncated" (String.sub good 0 (String.length good - 16));
  (* XPDL607: string-blob length header field pushed past the 2^31 bound *)
  let b = Bytes.of_string good in
  Bytes.set_int64_le b 70 0x10000000000L;
  write dir "length_overflow" (Bytes.to_string b);
  (* XPDL605: all nine header length fields zeroed (a "no nodes" header) *)
  let b = Bytes.of_string good in
  for i = 0 to 8 do
    Bytes.set_int64_le b (14 + (8 * i)) 0L
  done;
  write dir "garbage_header" (Bytes.to_string b);
  (* XPDL604 (via Ir.verify): one payload byte flipped inside the kind-name
     blob — structurally inert (kind decoding is total), so the file still
     loads and only the on-demand checksum notices *)
  let b = Bytes.of_string good in
  let nk = Int64.to_int (Bytes.get_int64_le b 30) in
  let off = 94 + ((nk + 1) * 4) in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x5A));
  write dir "bad_checksum" (Bytes.to_string b)
