"""Fleet-scale deployment screening (the ROADMAP's production workload).

The paper analyzes one deployment at a time; the production shape is the
opposite — millions of users each running a *small* household of 3–15
apps, with heavy repetition: most households are popularity-weighted
samples from the same app catalog, differing only in device/app names.
This package turns per-deployment analysis into fleet screening:

* :mod:`repro.fleet.profiles` — seeded, byte-deterministic sampling of
  installation profiles over the 82-app corpus + ``repro.gen``
  synthetics;
* :mod:`repro.fleet.canon` — the cluster-canonical household form
  (capability/role-sorted app multiset + shared-channel shape) that maps
  isomorphic households onto one cache key;
* :mod:`repro.fleet.driver` — the screening driver, fanning checks out
  over the shared corpus worker pool, with a fleet-level verdict cache
  tier
  (:class:`repro.corpus.diskcache.FleetCache`);
* :mod:`repro.fleet.telemetry` / :mod:`repro.fleet.blocklist` — the
  aggregate counters and the blocklist feed of violating app
  combinations, exported by ``soteria fleet`` and the service's
  ``/v1/fleet`` + ``/v1/blocklist`` views.

Submodules are imported explicitly (``from repro.fleet.driver import
run_fleet``); this package module stays import-free so the verdict
types in :mod:`repro.fleet.telemetry` can be used by the disk-cache
layer without a cycle through the driver.
"""
