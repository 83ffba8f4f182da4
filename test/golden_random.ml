(* Golden randomized-campaign outcomes: (seed, target set, version,
   tally in all_outcomes order, MD5 of every trial's fields), 200
   trials per version, each version on its own freshly booted
   testbed (the sequential reference the batching scheduler must
   reproduce). Do not regenerate. *)

let trials = 200

let cases =
  [
    (1L, "intrusion", "4.6",
     "1,46,153,0,0",
     "728ebdbc25f847ea6d2bd0a1abd3bba6");
    (1L, "intrusion", "4.8",
     "1,46,153,0,0",
     "728ebdbc25f847ea6d2bd0a1abd3bba6");
    (1L, "intrusion", "4.13",
     "1,46,153,0,0",
     "728ebdbc25f847ea6d2bd0a1abd3bba6");
    (1L, "all", "4.6",
     "1,36,129,34,0",
     "0a3a989bf592b5f35d6c85a780a1f2ed");
    (1L, "all", "4.8",
     "1,36,129,34,0",
     "0a3a989bf592b5f35d6c85a780a1f2ed");
    (1L, "all", "4.13",
     "1,36,129,34,0",
     "0a3a989bf592b5f35d6c85a780a1f2ed");
    (7L, "intrusion", "4.6",
     "2,47,151,0,0",
     "2d6cbe84b3e5b736bd96c2fb69c1e126");
    (7L, "intrusion", "4.8",
     "2,47,151,0,0",
     "2d6cbe84b3e5b736bd96c2fb69c1e126");
    (7L, "intrusion", "4.13",
     "2,47,151,0,0",
     "2d6cbe84b3e5b736bd96c2fb69c1e126");
    (7L, "all", "4.6",
     "2,39,124,35,0",
     "5d9ea68b7d171e78fe9844fc995cceec");
    (7L, "all", "4.8",
     "2,39,124,35,0",
     "5d9ea68b7d171e78fe9844fc995cceec");
    (7L, "all", "4.13",
     "2,39,124,35,0",
     "5d9ea68b7d171e78fe9844fc995cceec");
    (42L, "intrusion", "4.6",
     "5,56,139,0,0",
     "4f7bc18fa936de3c533748395eca38f4");
    (42L, "intrusion", "4.8",
     "5,56,139,0,0",
     "4f7bc18fa936de3c533748395eca38f4");
    (42L, "intrusion", "4.13",
     "5,56,139,0,0",
     "4f7bc18fa936de3c533748395eca38f4");
    (42L, "all", "4.6",
     "4,38,126,32,0",
     "bd20994f45ab8c61f68fbfffd8f21732");
    (42L, "all", "4.8",
     "4,38,126,32,0",
     "bd20994f45ab8c61f68fbfffd8f21732");
    (42L, "all", "4.13",
     "4,38,126,32,0",
     "bd20994f45ab8c61f68fbfffd8f21732");
  ]
