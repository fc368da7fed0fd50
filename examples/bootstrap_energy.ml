(* Deployment-time energy-model bootstrap (Sec. III-C and IV, Listings
   14-15).

   The x86 instruction table ships with "?" placeholders.  The toolchain
   generates the microbenchmark driver code (shown), runs the drivers on
   the (simulated) platform, reduces repeated meter readings and writes
   the derived per-instruction energies back into the model — optionally
   as a per-frequency table like the paper's divsd rows.

   Run with:  dune exec examples/bootstrap_energy.exe *)

open Xpdl_core

let () =
  let repo = Xpdl_repo.Repo.load_bundled () in
  let model =
    match Xpdl_repo.Repo.compose_by_name repo "liu_gpu_server" with
    | Ok c -> c.Xpdl_repo.Repo.model
    | Error msg -> failwith msg
  in
  let placeholders = Xpdl_microbench.Bootstrap.remaining_placeholders model in
  Fmt.pr "instructions awaiting measurement: %a@." Fmt.(list ~sep:comma string) placeholders;

  (* show a generated driver (the artifact a real deployment compiles) *)
  let pm = Power.of_element model in
  let suite = List.hd pm.Power.pm_suites in
  let bench = List.hd suite.Power.su_benches in
  Fmt.pr "@.--- generated driver %s.c (first 12 lines) ---@."
    bench.Power.mb_id;
  let src = Xpdl_microbench.Driver.generate_driver ~suite ~bench in
  List.iteri
    (fun i line -> if i < 12 then Fmt.pr "  %s@." line)
    (String.split_on_char '\n' src);

  (* run the bootstrap with a frequency sweep over the Xeon's P states *)
  let machine = Xpdl_simhw.Machine.create ~seed:7 model in
  let opts =
    {
      Xpdl_microbench.Bootstrap.default_options with
      repetitions = 15;
      frequencies = [ 1.2e9; 1.6e9; 2.0e9 ];
    }
  in
  let bootstrapped, results = Xpdl_microbench.Bootstrap.run ~opts ~machine model in

  Fmt.pr "@.--- derived energies (vs hidden simulator ground truth) ---@.";
  Fmt.pr "%-12s %-6s %12s %12s %8s@." "instruction" "mb" "derived" "truth" "error";
  List.iter
    (fun (r : Xpdl_microbench.Bootstrap.result) ->
      let truth =
        Xpdl_simhw.Truth.energy machine.Xpdl_simhw.Machine.truth ~name:r.instruction
          ~hz:machine.Xpdl_simhw.Machine.cores.(0).Xpdl_simhw.Machine.nominal_hz
      in
      Fmt.pr "%-12s %-6s %9.2f pJ %9.2f pJ %7.2f%%@." r.instruction r.benchmark
        (r.energy.Xpdl_microbench.Stats.mean *. 1e12)
        (truth *. 1e12)
        (100. *. Xpdl_microbench.Stats.relative_error ~estimate:r.energy.Xpdl_microbench.Stats.mean ~truth))
    results;

  (* the frequency sweep lands in the model as <data> rows *)
  let isa = Option.get (Model.find_by_name "x86_base_isa" bootstrapped) in
  let fmul = Option.get (Model.find_by_name "fmul" isa) in
  Fmt.pr "@.fmul energy by frequency (measured sweep, cf. Listing 14's divsd):@.";
  List.iter
    (fun (d : Model.element) ->
      match (Model.attr_quantity d "frequency", Model.attr_quantity d "energy") with
      | Some f, Some e ->
          Fmt.pr "  %4.1f GHz  %6.2f pJ@."
            (Xpdl_units.Units.value f /. 1e9)
            (Xpdl_units.Units.value e *. 1e12)
      | _ -> ())
    (Model.children_of_kind fmul Schema.Data);

  Fmt.pr "@.placeholders remaining after bootstrap: %d@."
    (List.length (Xpdl_microbench.Bootstrap.remaining_placeholders bootstrapped))
