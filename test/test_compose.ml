(* Tests for conditional composition: selectability constraints over the
   runtime model, tuned dispatch, and the SpMV case-study shape. *)

module Q = Xpdl_query.Query
open Xpdl_compose

let model = Testlib.model

let liu_ctx ?(iterations = 1) ~rows ~density () =
  let m = model "liu_gpu_server" in
  Spmv.context ~iterations ~query:(Q.of_model m)
    ~machine:(Xpdl_simhw.Machine.create ~noise_sigma:0.005 m)
    ~rows ~density ()

(* a platform without GPU software: myriad server *)
let myriad_ctx ~rows ~density =
  let m = model "myriad_server" in
  {
    Compose.query = Q.of_model m;
    machine = Xpdl_simhw.Machine.create m;
    problem = [ ("rows", float_of_int rows); ("density", density); ("iterations", 1.) ];
  }

let test_selection_all_available () =
  let ctx = liu_ctx ~rows:2000 ~density:0.01 () in
  let sel = Compose.select Spmv.component ctx in
  Alcotest.(check bool) "chose something" true (sel.Compose.s_chosen <> None);
  Alcotest.(check int) "three estimates" 3 (List.length sel.Compose.s_estimates);
  Alcotest.(check int) "no rejections" 0 (List.length sel.Compose.s_rejections)

let test_software_constraint_rejects_gpu () =
  (* the myriad server has no CUDA/CUSPARSE/MKL installed *)
  let ctx = myriad_ctx ~rows:1000 ~density:0.01 in
  let sel = Compose.select Spmv.component ctx in
  Alcotest.(check bool) "gpu rejected" true
    (List.exists (fun r -> r.Compose.r_variant = "gpu_csr") sel.Compose.s_rejections);
  Alcotest.(check bool) "cpu_csr rejected (no MKL)" true
    (List.exists (fun r -> r.Compose.r_variant = "cpu_csr") sel.Compose.s_rejections);
  (match sel.Compose.s_chosen with
  | Some v -> Alcotest.(check string) "fallback variant" "cpu_dense" v.Compose.v_name
  | None -> Alcotest.fail "cpu_dense has no requirements")

let test_memory_constraint_rejects_dense () =
  (* a dense 200k x 200k matrix needs 320 GB > the 21 GB modeled *)
  let ctx = liu_ctx ~rows:200_000 ~density:0.0001 () in
  let sel = Compose.select Spmv.component ctx in
  Alcotest.(check bool) "dense rejected" true
    (List.exists (fun r -> r.Compose.r_variant = "cpu_dense") sel.Compose.s_rejections)

let test_selection_mid_density_prefers_csr () =
  (* mid density: enough work per transferred byte for the CPU to win,
     not yet enough regularity for dense *)
  let ctx = liu_ctx ~rows:4000 ~density:0.05 () in
  match (Compose.select Spmv.component ctx).Compose.s_chosen with
  | Some v -> Alcotest.(check string) "mid density -> cpu_csr" "cpu_csr" v.Compose.v_name
  | None -> Alcotest.fail "selection"

let test_selection_ultra_sparse_prefers_gpu () =
  (* ultra sparse: the CPU pays cache misses on every irregular gather
     while the GPU hides them across thousands of lanes, and the tiny
     matrix makes the transfer negligible *)
  let ctx = liu_ctx ~rows:4000 ~density:0.0005 () in
  match (Compose.select Spmv.component ctx).Compose.s_chosen with
  | Some v -> Alcotest.(check string) "ultra sparse -> gpu_csr" "gpu_csr" v.Compose.v_name
  | None -> Alcotest.fail "selection"

let test_selection_dense_prefers_dense () =
  let ctx = liu_ctx ~rows:4000 ~density:0.6 () in
  match (Compose.select Spmv.component ctx).Compose.s_chosen with
  | Some v -> Alcotest.(check string) "dense -> cpu_dense" "cpu_dense" v.Compose.v_name
  | None -> Alcotest.fail "selection"

let test_selection_iterative_prefers_gpu () =
  (* 100 solver sweeps amortize the PCIe transfer *)
  let ctx = liu_ctx ~iterations:100 ~rows:4000 ~density:0.05 () in
  match (Compose.select Spmv.component ctx).Compose.s_chosen with
  | Some v -> Alcotest.(check string) "iterative -> gpu" "gpu_csr" v.Compose.v_name
  | None -> Alcotest.fail "selection"

let test_dispatch_runs () =
  let ctx = liu_ctx ~rows:1000 ~density:0.02 () in
  let name, meas = Compose.dispatch Spmv.component ctx in
  Alcotest.(check bool) "variant named" true (List.mem name (Compose.variant_names Spmv.component));
  Alcotest.(check bool) "time positive" true (meas.Xpdl_simhw.Machine.elapsed > 0.);
  Alcotest.(check bool) "energy positive" true (meas.Xpdl_simhw.Machine.total_energy > 0.)

let test_dispatch_no_variant () =
  let component =
    {
      Compose.c_name = "impossible";
      c_variants =
        [
          {
            Compose.v_name = "needs_unicorn";
            v_requires = [ "Unicorn_1.0" ];
            v_selectable = (fun _ -> true);
            v_estimate = (fun _ -> None);
            v_run = (fun _ -> Alcotest.fail "must not run");
          };
        ];
    }
  in
  let ctx = liu_ctx ~rows:10 ~density:0.5 () in
  match Compose.dispatch component ctx with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "dispatch with no selectable variant must fail"

let test_run_variant_by_name () =
  let ctx = liu_ctx ~rows:500 ~density:0.1 () in
  Alcotest.(check bool) "known" true (Compose.run_variant Spmv.component ctx "cpu_dense" <> None);
  Alcotest.(check bool) "unknown" true (Compose.run_variant Spmv.component ctx "ghost" = None)

let test_problem_params () =
  let ctx = liu_ctx ~rows:10 ~density:0.5 () in
  Alcotest.(check (option (float 1e-9))) "density" (Some 0.5)
    (Compose.problem_param ctx "density");
  Alcotest.(check bool) "missing param" true (Compose.problem_param ctx "ghost" = None);
  match Compose.problem_param_exn ctx "ghost" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "problem_param_exn must raise"

(* the headline shape of the case study (E6): tuned selection is never
   slower than any fixed-variant policy across the density sweep, within
   measurement noise *)
let test_tuned_never_loses () =
  let densities = [ 0.001; 0.01; 0.05; 0.2; 0.6 ] in
  List.iter
    (fun density ->
      let ctx = liu_ctx ~rows:2000 ~density () in
      let _, tuned = Compose.dispatch Spmv.component ctx in
      List.iter
        (fun name ->
          match Compose.run_variant Spmv.component ctx name with
          | Some fixed ->
              Alcotest.(check bool)
                (Fmt.str "tuned <= %s at d=%.3f" name density)
                true
                (tuned.Xpdl_simhw.Machine.elapsed
                 <= (fixed.Xpdl_simhw.Machine.elapsed *. 1.15) +. 1e-6)
          | None -> ())
        (Compose.variant_names Spmv.component))
    densities

let test_estimates_track_measurements () =
  (* cost estimates from platform metadata must rank variants in the same
     order as actual measurements (that is what makes tuning work) *)
  let ctx = liu_ctx ~rows:4000 ~density:0.3 () in
  let sel = Compose.select Spmv.component ctx in
  let measured =
    List.filter_map
      (fun (name, _) ->
        Option.map
          (fun m -> (name, m.Xpdl_simhw.Machine.elapsed))
          (Compose.run_variant Spmv.component ctx name))
      sel.Compose.s_estimates
  in
  let rank l = List.map fst (List.sort (fun (_, a) (_, b) -> Float.compare a b) l) in
  Alcotest.(check (list string)) "same ranking" (rank sel.Compose.s_estimates) (rank measured)

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "compose"
    [
      ( "selection",
        [
          case "all variants available" test_selection_all_available;
          case "software constraints" test_software_constraint_rejects_gpu;
          case "memory constraint" test_memory_constraint_rejects_dense;
          case "mid density -> cpu_csr" test_selection_mid_density_prefers_csr;
          case "ultra sparse -> gpu_csr" test_selection_ultra_sparse_prefers_gpu;
          case "dense -> cpu_dense" test_selection_dense_prefers_dense;
          case "iterative -> gpu_csr" test_selection_iterative_prefers_gpu;
        ] );
      ( "dispatch",
        [
          case "runs chosen variant" test_dispatch_runs;
          case "no selectable variant" test_dispatch_no_variant;
          case "run by name" test_run_variant_by_name;
          case "problem parameters" test_problem_params;
        ] );
      ( "case study",
        [
          case "tuned never loses" test_tuned_never_loses;
          case "estimates track measurements" test_estimates_track_measurements;
        ] );
    ]
