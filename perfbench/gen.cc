// Seeded input generator for the end-to-end benchmark.
//
// Writes a multi-contig reference, simulated reads and a ground-truth
// table from one seed, so the aligner under test only ever sees plain
// FASTA/FASTQ files:
//
//   perfbench_gen --out=PREFIX --seed=N --ref-length=L --contigs=C
//                 --reads=R --read-length=RL --profile=illumina|divergent
//                 [--paired --insert-mean=F --insert-sd=F --bait-every=K]
//
// Outputs PREFIX.fa, PREFIX.fq (or PREFIX_1.fq / PREFIX_2.fq with
// --paired) and PREFIX.truth.tsv with one line per read:
//   name  mate(0|1|2)  contig  pos(0-based, contig-local)  strand(+|-)
//
// The reference is one generateReference() sequence cut into C equal
// contigs; reads are sampled over the concatenated sequence, exactly as
// ReadSimulator does, so a few reads straddle a contig boundary.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "genome/fasta.h"
#include "genome/read_sim.h"
#include "genome/reference.h"
#include "util/rng.h"

using namespace seedex;

namespace {

std::map<std::string, std::string>
parseFlags(int argc, char **argv)
{
    std::map<std::string, std::string> flags;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            throw std::runtime_error("unexpected argument " + arg);
        const size_t eq = arg.find('=');
        flags[arg.substr(2, eq == std::string::npos ? eq : eq - 2)] =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
    }
    return flags;
}

long
flagLong(const std::map<std::string, std::string> &flags,
         const std::string &name, long fallback)
{
    auto it = flags.find(name);
    return it == flags.end() ? fallback : std::stol(it->second);
}

double
flagDouble(const std::map<std::string, std::string> &flags,
           const std::string &name, double fallback)
{
    auto it = flags.find(name);
    return it == flags.end() ? fallback : std::stod(it->second);
}

/** Contig-local coordinates of a global reference position. */
struct Locus
{
    size_t contig;
    size_t pos;
};

class Writer
{
  public:
    explicit Writer(const std::string &path)
        : path_(path), out_(path, std::ios::binary | std::ios::trunc)
    {
        if (!out_)
            throw std::runtime_error(path + ": cannot open for writing");
    }

    std::ofstream &stream() { return out_; }

    void
    close()
    {
        out_.flush();
        if (!out_)
            throw std::runtime_error(path_ + ": write failed");
        out_.close();
    }

  private:
    std::string path_;
    std::ofstream out_;
};

void
writeFastq(Writer &fq, const std::string &name, const Sequence &seq)
{
    const std::string bases = seq.toString();
    fq.stream() << '@' << name << '\n'
                << bases << "\n+\n"
                << std::string(bases.size(), 'I') << '\n';
}

/** Rescue bait: the substitution pattern of the shredded-mate corpus in
 *  tools/check_metrics.sh (every 12th base from offset 5, A>C>G>T>A). */
void
shred(Sequence &seq)
{
    for (size_t i = 5; i < seq.size(); i += 12)
        seq[i] = static_cast<Base>((seq[i] + 1) % 4);
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const auto flags = parseFlags(argc, argv);
        if (!flags.count("out"))
            throw std::runtime_error("--out=PREFIX is required");
        const std::string prefix = flags.at("out");
        const uint64_t seed =
            static_cast<uint64_t>(flagLong(flags, "seed", 1));
        const size_t n_contigs =
            static_cast<size_t>(flagLong(flags, "contigs", 1));
        const size_t n_reads =
            static_cast<size_t>(flagLong(flags, "reads", 1000));
        const bool paired = flags.count("paired") > 0;
        const long bait_every = flagLong(flags, "bait-every", 0);
        const std::string profile =
            flags.count("profile") ? flags.at("profile") : "illumina";

        Rng rng(seed);
        ReferenceParams ref_params;
        ref_params.length =
            static_cast<size_t>(flagLong(flags, "ref-length", 1 << 20));
        const Sequence reference = generateReference(ref_params, rng);
        if (n_contigs == 0 || n_contigs > reference.size())
            throw std::runtime_error("bad --contigs");

        std::vector<FastaRecord> contigs;
        std::vector<size_t> offsets;
        const size_t per = reference.size() / n_contigs;
        for (size_t c = 0; c < n_contigs; ++c) {
            const size_t beg = c * per;
            const size_t len =
                c + 1 == n_contigs ? reference.size() - beg : per;
            offsets.push_back(beg);
            contigs.push_back({"ctg" + std::to_string(c + 1),
                               reference.slice(beg, len)});
        }
        writeFastaFile(prefix + ".fa", contigs);
        const auto locate = [&](size_t global) {
            size_t c = std::min(global / per, n_contigs - 1);
            return Locus{c, global - offsets[c]};
        };

        ReadSimParams sim = ReadSimParams::illumina();
        if (profile == "divergent") {
            // ~4% substitutions, ~0.4% small indels, 10% long-indel reads.
            sim.base_error_rate = 0.03;
            sim.snp_rate = 0.01;
            sim.small_indel_rate = 0.004;
            sim.long_indel_read_fraction = 0.10;
        } else if (profile != "illumina") {
            throw std::runtime_error("unknown --profile " + profile);
        }
        sim.read_length = static_cast<size_t>(flagLong(
            flags, "read-length", static_cast<long>(sim.read_length)));
        sim.insert_mean = flagDouble(flags, "insert-mean", sim.insert_mean);
        sim.insert_sd = flagDouble(flags, "insert-sd", sim.insert_sd);
        const ReadSimulator simulator(reference, sim);

        Writer truth(prefix + ".truth.tsv");
        const auto emitTruth = [&](const SimulatedRead &r, int mate) {
            const Locus at = locate(r.true_pos);
            truth.stream() << r.name << '\t' << mate << '\t'
                           << contigs[at.contig].name << '\t' << at.pos
                           << '\t' << (r.reverse ? '-' : '+') << '\n';
        };
        if (paired) {
            Writer fq1(prefix + "_1.fq"), fq2(prefix + "_2.fq");
            for (size_t i = 0; i < n_reads; ++i) {
                SimulatedPair pair = simulator.simulatePair(rng, i);
                if (bait_every > 0 && i % static_cast<size_t>(bait_every) == 0)
                    shred(pair.second.seq);
                writeFastq(fq1, pair.first.name, pair.first.seq);
                writeFastq(fq2, pair.second.name, pair.second.seq);
                emitTruth(pair.first, 1);
                emitTruth(pair.second, 2);
            }
            fq1.close();
            fq2.close();
        } else {
            Writer fq(prefix + ".fq");
            for (size_t i = 0; i < n_reads; ++i) {
                const SimulatedRead read = simulator.simulate(rng, i);
                writeFastq(fq, read.name, read.seq);
                emitTruth(read, 0);
            }
            fq.close();
        }
        truth.close();
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "perfbench_gen: " << e.what() << "\n";
        return 1;
    }
}
