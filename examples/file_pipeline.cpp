/**
 * @file
 * File-based pipeline: the shape of a real aligner run.
 *
 * Writes a synthetic reference to FASTA and simulated reads to FASTQ,
 * then reads both back, aligns with the threaded SeedEx pipeline and
 * streams a SAM file with a header — exercising the genome-I/O
 * substrate and the producer-consumer hand-off end to end. Records are
 * written the moment the reorder buffer retires them, in input order,
 * without buffering the run.
 *
 * The thread count comes from SEEDEX_THREADS (see README).
 *
 * Usage: file_pipeline [workdir] [reads]
 */
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "aligner/pipeline.h"
#include "aligner/threaded.h"
#include "genome/fasta.h"
#include "genome/read_sim.h"
#include "genome/reference.h"
#include "util/rng.h"

using namespace seedex;

int
main(int argc, char **argv)
{
    const std::string dir = argc > 1 ? argv[1] : "/tmp/seedex_demo";
    const size_t n_reads = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                    : 500;
    std::filesystem::create_directories(dir);

    // --- Generate and persist the inputs.
    Rng rng(2026);
    ReferenceParams ref_params;
    ref_params.length = 300000;
    const Sequence reference = generateReference(ref_params, rng);
    writeFastaFile(dir + "/ref.fa", {{"ref", reference}});

    ReadSimulator simulator(reference, ReadSimParams::illumina());
    std::vector<FastqRecord> fastq;
    for (size_t i = 0; i < n_reads; ++i) {
        const SimulatedRead r = simulator.simulate(rng, i);
        fastq.push_back({r.name, r.seq,
                         std::string(r.seq.size(), 'I')});
    }
    writeFastqFile(dir + "/reads.fq", fastq);

    // --- Load them back (as a real tool would).
    const auto ref_records = readFastaFile(dir + "/ref.fa");
    const auto read_records = readFastqFile(dir + "/reads.fq");
    std::cout << "loaded " << ref_records[0].seq.size()
              << " bp reference and " << read_records.size()
              << " reads from " << dir << '\n';

    // --- Align threaded and stream SAM in input order.
    std::vector<std::pair<std::string, Sequence>> reads;
    reads.reserve(read_records.size());
    for (const FastqRecord &rec : read_records)
        reads.emplace_back(rec.name, rec.seq);

    ThreadedConfig config;
    config.pipeline.engine = EngineKind::SeedEx;
    config.applyEnv(); // SEEDEX_THREADS

    std::ofstream sam(dir + "/out.sam");
    sam << "@HD\tVN:1.6\tSO:unsorted\n";
    sam << "@SQ\tSN:" << ref_records[0].name
        << "\tLN:" << ref_records[0].seq.size() << '\n';
    sam << "@PG\tID:seedex\tPN:seedex-quickstart\n";
    size_t mapped = 0;
    ThreadedReport report;
    alignThreadedStream(
        ref_records[0].seq, reads, config,
        [&](size_t /*read_idx*/, SamRecord &&out) {
            // The reorder buffer retires batches in input order, so
            // records arrive here already sequenced for the file.
            mapped += out.mapped();
            sam << out.render() << '\n';
        },
        &report);
    std::cout << "wrote " << dir << "/out.sam: " << mapped << '/'
              << read_records.size() << " reads mapped by "
              << report.seeding_threads << " seeding + "
              << report.fpga_threads << " fpga threads ("
              << report.batches << " batches of " << report.batch_size
              << ", " << report.extensions << " extensions, pool hit rate "
              << 100.0 * report.pool.hitRate() << "%)\n";
    return 0;
}
