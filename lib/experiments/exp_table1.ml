module A = Aigs.Aig
module E = Techmap.Estimate
module G = Cell.Genlib

type row = { name : string; description : string; results : (string * E.report) list }

type summary = {
  rows : row list;
  averages : (string * E.report) list;
  improvement_vs_cmos : (string * (string * float) list) list;
}

module T = Runtime.Telemetry

let run ?(patterns = E.default_patterns) ?(seed = 42L) ?(circuits = Circuits.Suite.all) ?(verify = true) () =
  let matchlibs = List.map (fun lib -> (lib, Techmap.Matchlib.build lib)) (G.libraries ()) in
  let rows =
    List.map
      (fun (entry : Circuits.Suite.entry) ->
        T.with_span ("circuit." ^ entry.Circuits.Suite.name) (fun () ->
        let nl = entry.Circuits.Suite.generate () in
        (* Well-formedness gate before mapping: a malformed generator output
           fails here with a typed netlist/* error instead of surfacing as a
           cryptic mapper crash. *)
        let (_ : Nets.Check.report) = Nets.Check.check_exn nl in
        let aig = A.of_netlist nl in
        let opt = T.with_span "synth.resyn2rs" (fun () -> Aigs.Opt.resyn2rs aig) in
        (* The cuts and the switching counts depend on the AIG alone: one
           pass of each serves every family. *)
        let subject = Techmap.Mapper.subject opt in
        let activity = E.simulate ~patterns ~seed opt in
        let results =
          List.map
            (fun (lib, ml) ->
              let mapped = Techmap.Mapper.map_subject ml subject in
              if
                verify
                && not
                     (T.with_span "techmap.verify" (fun () ->
                          Techmap.Mapped.check mapped nl ~patterns:512 ~seed:99L))
              then
                Runtime.Cnt_error.failf
                  ~context:
                    [ ("circuit", entry.Circuits.Suite.name); ("library", lib.G.name) ]
                  Runtime.Cnt_error.Techmap Runtime.Cnt_error.Mismatch
                  "Table1: %s mapped with %s is not equivalent"
                  entry.Circuits.Suite.name lib.G.name;
              (lib.G.name, E.of_activity activity mapped))
            matchlibs
        in
        {
          name = entry.Circuits.Suite.name;
          description = entry.Circuits.Suite.description;
          results;
        }))
      circuits
  in
  let lib_names = List.map (fun (lib, _) -> lib.G.name) matchlibs in
  let mean sel name =
    let values = List.map (fun r -> sel (List.assoc name r.results)) rows in
    List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)
  in
  let averages =
    List.map
      (fun name ->
        ( name,
          {
            E.gates = int_of_float (mean (fun r -> float_of_int r.E.gates) name +. 0.5);
            area = mean (fun r -> r.E.area) name;
            delay = mean (fun r -> r.E.delay) name;
            dynamic = mean (fun r -> r.E.dynamic) name;
            short_circuit = mean (fun r -> r.E.short_circuit) name;
            static = mean (fun r -> r.E.static) name;
            gate_leak = mean (fun r -> r.E.gate_leak) name;
            total = mean (fun r -> r.E.total) name;
            edp = mean (fun r -> r.E.edp) name;
          } ))
      lib_names
  in
  let cmos_avg = List.assoc "cmos" averages in
  let improvement_vs_cmos =
    List.filter_map
      (fun (name, avg) ->
        if name = "cmos" then None
        else
          Some
            ( name,
              [
                ("gates", 1.0 -. (float_of_int avg.E.gates /. float_of_int cmos_avg.E.gates));
                ("delay", cmos_avg.E.delay /. avg.E.delay);
                ("pd", 1.0 -. (avg.E.dynamic /. cmos_avg.E.dynamic));
                ("ps", 1.0 -. (avg.E.static /. cmos_avg.E.static));
                ("pt", 1.0 -. (avg.E.total /. cmos_avg.E.total));
                ("edp", cmos_avg.E.edp /. avg.E.edp);
              ] ))
      averages
  in
  { rows; averages; improvement_vs_cmos }

let print ppf summary =
  let metric_cells (r : E.report) =
    [
      string_of_int r.E.gates;
      Report.f1 (r.E.delay *. 1e12);
      Report.f2 (r.E.dynamic *. 1e6);
      Report.f2 (r.E.static *. 1e6);
      Report.f2 (r.E.total *. 1e6);
      Report.f2 (r.E.edp *. 1e24);
    ]
  in
  let lib_names = List.map fst summary.averages in
  let headers =
    Array.of_list
      ("Circuit" :: "Function"
      :: List.concat_map
           (fun lib ->
             let tag =
               match lib with
               | "cntfet-generalized" -> "GEN"
               | "cntfet-conventional" -> "CNV"
               | "cmos" -> "CMOS"
               | other -> other
             in
             List.map
               (fun m -> tag ^ ":" ^ m)
               [ "No."; "Delay"; "PD"; "PS"; "PT"; "EDP" ])
           lib_names)
  in
  let rows =
    List.map
      (fun r ->
        Array.of_list
          (r.name :: r.description
          :: List.concat_map (fun lib -> metric_cells (List.assoc lib r.results)) lib_names))
      summary.rows
  in
  let avg_row =
    Array.of_list
      ("Average" :: ""
      :: List.concat_map (fun lib -> metric_cells (List.assoc lib summary.averages)) lib_names)
  in
  Report.render ppf
    {
      Report.title =
        "E1 / Table 1: gate count, delay (ps), PD (uW), PS (uW), PT (uW), EDP (1e-24 J.s)";
      headers;
      rows = rows @ [ avg_row ];
    };
  List.iter
    (fun (lib, metrics) ->
      Format.fprintf ppf "Improvement of %s vs CMOS: " lib;
      List.iter
        (fun (metric, v) ->
          match metric with
          | "delay" | "edp" -> Format.fprintf ppf "%s %s  " metric (Report.times v)
          | _ -> Format.fprintf ppf "%s %s  " metric (Report.pct v))
        metrics;
      Format.fprintf ppf "@.")
    summary.improvement_vs_cmos;
  Format.fprintf ppf
    "(paper: GEN vs CMOS gates -24.2%%, delay 7.1x, PD -53.4%%, PS -94.5%%, PT -57.1%%, EDP 19.5x;@.";
  Format.fprintf ppf
    " CNV vs CMOS gates -3.2%%, delay 5.1x, PD -30.9%%, PS -92.7%%, PT -36.7%%, EDP 8.1x)@."

(* The headline claims of Table 1 as manifest scalars: per-library averages
   plus the improvement-vs-CMOS percentages (PT saving, EDP ratio). *)
let scalars summary =
  let averages =
    List.concat_map
      (fun (lib, (avg : E.report)) ->
        [
          (lib ^ ".gates", float_of_int avg.E.gates);
          (lib ^ ".delay_ps", avg.E.delay *. 1e12);
          (lib ^ ".total_uW", avg.E.total *. 1e6);
          (lib ^ ".edp_1e-24Js", avg.E.edp *. 1e24);
        ])
      summary.averages
  in
  let improvements =
    List.concat_map
      (fun (lib, metrics) ->
        List.map (fun (m, v) -> (lib ^ ".vs_cmos." ^ m, v)) metrics)
      summary.improvement_vs_cmos
  in
  averages @ improvements
