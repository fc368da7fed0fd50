(* Scaffolding shared by the alcotest suites. *)

let repo = lazy (Xpdl_repo.Repo.load_bundled ())

(* A bundled system, composed. *)
let model name =
  match Xpdl_repo.Repo.compose_by_name (Lazy.force repo) name with
  | Ok c -> c.Xpdl_repo.Repo.model
  | Error msg -> Alcotest.failf "compose %s: %s" name msg

(* Run [f] on a fresh empty directory, deleted afterwards. *)
let with_temp_dir prefix f =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  Fun.protect ~finally:(fun () -> Xpdl_kernel.remove_tree d) (fun () -> f d)

(* Minor words that one warm call of [f] allocates on the bundled
   system [name], per element of its composed model: fails if over
   [bound].  A per-element bound holds on the 5k-element server and the
   44k-element cluster alike. *)
let check_words_per_element ~bound what f name =
  let m = model name in
  ignore (f m);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f m));
  let per = (Gc.minor_words () -. before) /. float_of_int (Xpdl_core.Model.size m) in
  if per > bound then
    Alcotest.failf "%s on %s: %.1f minor words per element, bound %.0f" what name per bound
