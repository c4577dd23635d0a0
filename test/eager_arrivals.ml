(* The server's arrival schedule as it was first written: every
   tenant's whole stream drawn up front, then one sort of all arrivals
   by (time, tenant, seq).  The server now draws its streams lazily and
   merges them; the serve tests compare the two. *)

module Server = Dssoc_serve.Server
module Prng = Dssoc_util.Prng
module Reference_apps = Dssoc_apps.Reference_apps
module App_spec = Dssoc_apps.App_spec

(* (arrival_ns, tenant index, per-tenant seq, app name) in instance
   order, as [Server.materialize_debug]. *)
let materialize (sp : Server.spec) =
  let duration_ns = int_of_float (sp.Server.sp_duration_ms *. 1e6) in
  let per_tenant =
    List.mapi
      (fun idx (tn : Server.tenant_spec) ->
        let specs =
          Array.of_list
            (List.concat_map
               (fun (name, w) ->
                 match Reference_apps.by_name name with
                 | Ok a -> List.init w (fun _ -> a)
                 | Error e -> failwith e)
               tn.Server.tn_apps)
        in
        let seed =
          match tn.Server.tn_seed with
          | Some s -> s
          | None -> Prng.derive_seed ~seed:sp.Server.sp_seed ~index:idx
        in
        let prng = Prng.create ~seed in
        let mean_ns = 1e6 /. tn.Server.tn_rate_per_ms in
        let rec gen t seq acc =
          let dt = max 1 (int_of_float (Float.round (Prng.exponential prng ~mean:mean_ns))) in
          let t = t + dt in
          if t >= duration_ns then List.rev acc
          else
            let spec = specs.(Prng.int prng (Array.length specs)) in
            gen t (seq + 1) ((t, idx, seq, spec.App_spec.app_name) :: acc)
        in
        gen 0 0 [])
      sp.Server.sp_tenants
  in
  List.sort
    (fun (t, ti, s, _) (t', ti', s', _) -> compare (t, ti, s) (t', ti', s'))
    (List.concat per_tenant)
