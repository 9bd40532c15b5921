(** Figure 12 — impact of operator merging and shared scans (§6.5).

    (a) top-shopper (filter, aggregate, threshold — one mergeable scan)
    with operator merging on/off, varying the user count;
    (b) the same ablation on cross-community PageRank.

    Expected: a one-off saving from avoided per-job overheads plus a
    linear benefit from sharing the scan. *)

let user_counts = [ 10_000_000; 20_000_000; 30_000_000; 40_000_000;
                    50_000_000 ]

let top_shopper_row users =
  let m = Musketeer.create ~cluster:(Common.ec2 16) () in
  let hdfs = Common.load_purchases ~users in
  let graph = Workloads.Workflows.top_shopper () in
  let merged = Common.run_auto m ~workflow:"top-shopper" ~hdfs graph in
  let unmerged =
    Common.run_auto ~merging:false m ~workflow:"top-shopper" ~hdfs graph
  in
  (users, merged, unmerged)

let cross_community_row () =
  let m = Musketeer.create ~cluster:Common.local7 () in
  let hdfs = Common.load_communities () in
  let graph = Workloads.Workflows.cross_community_pagerank () in
  let merged = Common.run_auto m ~workflow:"cross-community" ~hdfs graph in
  let unmerged =
    Common.run_auto ~merging:false m ~workflow:"cross-community" ~hdfs graph
  in
  (merged, unmerged)

let fst_cell = function
  | Ok (s, _) -> Common.seconds s
  | Error e -> e

let run ppf =
  Common.table ppf
    ~title:"Figure 12a: top-shopper, operator merging on/off (EC2)"
    ~header:[ "users"; "merged"; "unmerged" ]
    (List.map
       (fun users ->
          let users_, merged, unmerged = top_shopper_row users in
          [ Printf.sprintf "%dM" (users_ / 1_000_000); fst_cell merged;
            fst_cell unmerged ])
       user_counts);
  let merged, unmerged = cross_community_row () in
  Common.table ppf
    ~title:"Figure 12b: cross-community PageRank, merging on/off (local)"
    ~header:[ "configuration"; "makespan" ]
    [ [ "merged"; fst_cell merged ]; [ "unmerged"; fst_cell unmerged ] ]
