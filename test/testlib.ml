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

(* A bundled system after inheritance resolution and before
   instantiation: the tree that [Instantiate.run] expands. *)
let resolved name =
  let r = Lazy.force repo in
  match Xpdl_repo.Repo.find r name with
  | None -> Alcotest.failf "no descriptor named %s" name
  | Some root -> fst (Xpdl_core.Inheritance.resolve_lenient (Xpdl_repo.Repo.lookup r) root)

(* Minor words that one warm call of [f] allocates on the bundled
   system [name], per element of its composed model: fails if over
   [bound].  [f] reads the composed model, or the tree that [input]
   gives (e.g. {!resolved}).  A per-element bound holds on the
   5k-element server and the 44k-element cluster alike. *)
let check_words_per_element ?(input = model) ~bound what f name =
  let m = input name in
  ignore (f m);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f m));
  let words = Gc.minor_words () -. before in
  let per = words /. float_of_int (Xpdl_core.Model.size (model name)) in
  if per > bound then
    Alcotest.failf "%s on %s: %.1f minor words per element, bound %.0f" what name per bound
