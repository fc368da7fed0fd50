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
